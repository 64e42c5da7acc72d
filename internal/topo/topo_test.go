package topo

import (
	"testing"
	"testing/quick"
)

func TestNewBasics(t *testing.T) {
	cases := []struct {
		p, levels, queueLevels, maxTeam int
	}{
		{1, 0, 1, 1},
		{2, 1, 2, 2},
		{3, 2, 2, 2},
		{4, 2, 3, 4},
		{5, 3, 3, 4},
		{6, 3, 3, 4},
		{7, 3, 3, 4},
		{8, 3, 4, 8},
		{12, 4, 4, 8},
		{16, 4, 5, 16},
		{24, 5, 5, 16},
		{64, 6, 7, 64},
	}
	for _, c := range cases {
		tp := New(c.p)
		if tp.Levels != c.levels {
			t.Errorf("p=%d: Levels=%d, want %d", c.p, tp.Levels, c.levels)
		}
		if tp.QueueLevels != c.queueLevels {
			t.Errorf("p=%d: QueueLevels=%d, want %d", c.p, tp.QueueLevels, c.queueLevels)
		}
		if tp.MaxTeam != c.maxTeam {
			t.Errorf("p=%d: MaxTeam=%d, want %d", c.p, tp.MaxTeam, c.maxTeam)
		}
	}
}

func TestPartnerBitFlip(t *testing.T) {
	tp := New(16)
	for i := 0; i < 16; i++ {
		for l := 0; l < tp.Levels; l++ {
			q := tp.Partner(i, l)
			if q != i^(1<<uint(l)) {
				t.Fatalf("Partner(%d,%d)=%d, want %d", i, l, q, i^(1<<uint(l)))
			}
		}
	}
}

func TestPartnerSymmetry(t *testing.T) {
	// Partnering is an involution: partner(partner(i,l),l) == i.
	for _, p := range []int{2, 4, 8, 16, 32} {
		tp := New(p)
		for i := 0; i < p; i++ {
			for l := 0; l < tp.Levels; l++ {
				q := tp.Partner(i, l)
				if q < 0 {
					continue
				}
				if back := tp.Partner(q, l); back != i {
					t.Fatalf("p=%d: Partner(Partner(%d,%d)=%d,%d)=%d", p, i, l, q, l, back)
				}
			}
		}
	}
}

func TestPartnerUniqueAndMissing(t *testing.T) {
	// For non-power-of-two p some partners are missing; the rest are unique
	// and within range.
	for _, p := range []int{3, 5, 6, 7, 11, 24} {
		tp := New(p)
		for i := 0; i < p; i++ {
			seen := map[int]bool{}
			for l := 0; l < tp.Levels; l++ {
				q := tp.Partner(i, l)
				if q == -1 {
					if x := i ^ (1 << uint(l)); x < p {
						t.Fatalf("p=%d: Partner(%d,%d) missing but %d < p", p, i, l, x)
					}
					continue
				}
				if q < 0 || q >= p || q == i || seen[q] {
					t.Fatalf("p=%d: bad partner %d for (%d,%d)", p, q, i, l)
				}
				seen[q] = true
			}
		}
	}
}

func TestRandPartnerInSiblingBlock(t *testing.T) {
	tp := New(32)
	for i := 0; i < 32; i++ {
		for l := 0; l < tp.Levels; l++ {
			for rnd := uint64(0); rnd < 64; rnd++ {
				q := tp.RandPartner(i, l, rnd)
				if q < 0 {
					t.Fatalf("missing partner in power-of-two topology")
				}
				// Same block at level l+1, different half at level l.
				if !Overlap(i, q, 1<<uint(l+1)) {
					t.Fatalf("RandPartner(%d,%d)=%d outside the level-%d block", i, l, q, l+1)
				}
				if Overlap(i, q, 1<<uint(l)) {
					t.Fatalf("RandPartner(%d,%d)=%d inside own half", i, l, q)
				}
			}
		}
	}
}

func TestTeamBounds(t *testing.T) {
	if TeamLeft(5, 4) != 4 || TeamRight(5, 4) != 8 {
		t.Fatalf("TeamLeft/Right(5,4) = %d/%d", TeamLeft(5, 4), TeamRight(5, 4))
	}
	if TeamLeft(5, 1) != 5 || TeamRight(5, 1) != 6 {
		t.Fatal("size-1 team must be the worker itself")
	}
	if TeamLeft(7, 8) != 0 || TeamRight(7, 8) != 8 {
		t.Fatal("size-8 team containing 7 must be [0,8)")
	}
}

func TestOverlapProperties(t *testing.T) {
	// Overlap is an equivalence relation per fixed r; classes are aligned
	// blocks of size r.
	err := quick.Check(func(a, b uint8, rexp uint8) bool {
		r := 1 << (rexp % 7)
		x, y := int(a), int(b)
		want := x/r == y/r
		return Overlap(x, y, r) == want
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestLocalIDProperties(t *testing.T) {
	err := quick.Check(func(id, coord uint8, rexp uint8) bool {
		r := 1 << (rexp % 7)
		i, c := int(id), int(coord)
		if !Overlap(i, c, r) {
			return true // precondition
		}
		lid := LocalID(i, c, r)
		return lid >= 0 && lid < r && TeamLeft(c, r)+lid == i
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestBlockFits(t *testing.T) {
	if !BlockFits(0, 4, 6) || BlockFits(4, 4, 6) || !BlockFits(4, 2, 6) {
		t.Fatal("BlockFits p=6: blocks [0,4) and [4,6) fit, [4,8) does not")
	}
}

func TestPow2Helpers(t *testing.T) {
	for _, c := range []struct{ x, floor, l2c, l2f int }{
		{1, 1, 0, 0},
		{2, 2, 1, 1},
		{3, 2, 2, 1},
		{4, 4, 2, 2},
		{5, 4, 3, 2},
		{7, 4, 3, 2},
		{8, 8, 3, 3},
		{1000, 512, 10, 9},
	} {
		if FloorPow2(c.x) != c.floor {
			t.Errorf("FloorPow2(%d)=%d, want %d", c.x, FloorPow2(c.x), c.floor)
		}
		if Log2Ceil(c.x) != c.l2c {
			t.Errorf("Log2Ceil(%d)=%d, want %d", c.x, Log2Ceil(c.x), c.l2c)
		}
		if Log2Floor(c.x) != c.l2f {
			t.Errorf("Log2Floor(%d)=%d, want %d", c.x, Log2Floor(c.x), c.l2f)
		}
	}
}

func TestLevel(t *testing.T) {
	for _, c := range []struct{ r, lvl int }{
		{1, 0}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {8, 3}, {9, 4}, {16, 4},
	} {
		if Level(c.r) != c.lvl {
			t.Errorf("Level(%d)=%d, want %d", c.r, Level(c.r), c.lvl)
		}
	}
}

func TestTeamsPartitionIDSpace(t *testing.T) {
	// For power-of-two p and any power-of-two r ≤ p, the id space is
	// partitioned into p/r aligned disjoint teams — the k·r … (k+1)·r−1
	// structure of §3.
	const p = 32
	for r := 1; r <= p; r *= 2 {
		counts := make(map[int]int)
		for i := 0; i < p; i++ {
			counts[TeamLeft(i, r)]++
		}
		if len(counts) != p/r {
			t.Fatalf("r=%d: %d teams, want %d", r, len(counts), p/r)
		}
		for left, n := range counts {
			if n != r || left%r != 0 {
				t.Fatalf("r=%d: team at %d has %d members", r, left, n)
			}
		}
	}
}

func TestNewPanicsOnBadP(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for p=0")
		}
	}()
	New(0)
}
