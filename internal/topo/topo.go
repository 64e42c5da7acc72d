// Package topo implements the deterministic thread topology used by
// work-stealing with team-building (Wimmer & Träff, SPAA 2011, §3).
//
// Workers are identified by integer ids 0 ≤ I < p. The partner of worker I
// at level ℓ is obtained by flipping the ℓ-th bit of I, so that over
// log p levels every worker has a unique partner inside each power-of-two
// block of the id space. Teams for a task requiring r threads always consist
// of the consecutive ids k·r … (k+1)·r−1 of the power-of-two block that
// contains the coordinator (§3.1).
//
// Refinement 3 of the paper (arbitrary number of hardware threads) is
// supported by marking partners whose id would fall outside [0,p) as missing
// and by restricting coordination to blocks that fit entirely inside [0,p).
package topo

import "math/bits"

// Topology precomputes the partner structure for p workers.
//
// Levels is the number of partner levels (⌈log2 p⌉); QueueLevels is the
// number of task-size classes (⌊log2 p⌋+1), where queue level j holds tasks
// with thread requirement 2^j (Refinement 1).
type Topology struct {
	P           int
	Levels      int
	QueueLevels int
	// MaxTeam is the largest feasible team size: the largest power of two
	// 2^j such that at least one block [k·2^j, (k+1)·2^j) fits in [0,p).
	MaxTeam int
	// partners[i][l] is the deterministic partner of worker i at level l,
	// or -1 if that partner does not exist (id ≥ p).
	partners [][]int
}

// New builds the topology for p ≥ 1 workers.
func New(p int) *Topology {
	if p < 1 {
		panic("topo: p must be ≥ 1")
	}
	t := &Topology{
		P:           p,
		Levels:      Log2Ceil(p),
		QueueLevels: Log2Floor(p) + 1,
		MaxTeam:     FloorPow2(p),
	}
	t.partners = make([][]int, p)
	for i := 0; i < p; i++ {
		row := make([]int, t.Levels)
		for l := 0; l < t.Levels; l++ {
			q := i ^ (1 << uint(l))
			if q >= p {
				q = -1
			}
			row[l] = q
		}
		t.partners[i] = row
	}
	return t
}

// Partner returns the deterministic partner of worker id at level l, or -1
// if the partner does not exist (Refinement 3: missing partner).
func (t *Topology) Partner(id, l int) int {
	return t.partners[id][l]
}

// RandPartner returns a randomized partner for worker id at level l
// (Refinement 4): id XOR u for a uniformly random u in [2^l, 2^{l+1}), which
// picks uniformly among the 2^l members of the sibling sub-block while
// preserving the block hierarchy. rnd must be a non-negative pseudo-random
// value. Returns -1 if the chosen partner id is ≥ p.
func (t *Topology) RandPartner(id, l int, rnd uint64) int {
	u := (1 << uint(l)) + int(rnd&uint64(1<<uint(l)-1))
	q := id ^ u
	if q >= t.P {
		return -1
	}
	return q
}

// TeamLeft returns the smallest worker id of the team of size r (a power of
// two) that contains worker id: id with the low log2(r) bits cleared.
func TeamLeft(id, r int) int {
	return id &^ (r - 1)
}

// TeamRight returns one past the largest worker id of the team of size r
// containing id.
func TeamRight(id, r int) int {
	return TeamLeft(id, r) + r
}

// Overlap reports whether workers a and b belong to the same team of size r
// (a power of two). This is the overlap() predicate of Algorithm 9.
func Overlap(a, b, r int) bool {
	return a&^(r-1) == b&^(r-1)
}

// LocalID returns the team-local id (0 … r−1) of worker id inside the team
// of size r that contains coord. The caller must ensure Overlap(id, coord, r).
func LocalID(id, coord, r int) int {
	return id - TeamLeft(coord, r)
}

// BlockFits reports whether the size-r block containing id lies entirely
// inside [0, p): only then can a worker with this id coordinate a task that
// requires r threads (Refinement 3).
func BlockFits(id, r, p int) bool {
	return TeamRight(id, r) <= p
}

// Level returns the queue level for a task requiring r threads: the exponent
// of the next power of two ≥ r (Refinement 2 rounds requirements up).
func Level(r int) int {
	return Log2Ceil(r)
}

// FloorPow2 returns the largest power of two ≤ x (x ≥ 1).
func FloorPow2(x int) int {
	if x < 1 {
		panic("topo: FloorPow2 of non-positive value")
	}
	return 1 << uint(bits.Len(uint(x))-1)
}

// Log2Ceil returns ⌈log2 x⌉ for x ≥ 1.
func Log2Ceil(x int) int {
	if x <= 1 {
		return 0
	}
	return bits.Len(uint(x - 1))
}

// Log2Floor returns ⌊log2 x⌋ for x ≥ 1.
func Log2Floor(x int) int {
	if x < 1 {
		panic("topo: Log2Floor of non-positive value")
	}
	return bits.Len(uint(x)) - 1
}
