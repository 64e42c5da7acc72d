package core

import (
	"sync/atomic"
	"testing"
)

// FuzzGroup fuzzes the per-group quiescence invariant: random spawn trees
// are interleaved across a random number of groups on one scheduler, and
// every group's Wait must observe all and only its own tasks — the group's
// completion counter equals exactly the size of its spawn tree, and both
// the group and (after all groups drained) the scheduler read zero pending.
// Every edge of a tree is, by a hash of the seed and the child's position,
// either detached (Ctx.Spawn, accounted on the group) or joined (TaskGroup,
// accounted on the parent's TaskGroup only), so the trees mix both
// completion targets at every depth.
func FuzzGroup(f *testing.F) {
	f.Add(uint64(1), uint8(2), uint8(3), uint8(2), uint8(2))
	f.Add(uint64(42), uint8(5), uint8(1), uint8(3), uint8(1))
	f.Add(uint64(7), uint8(1), uint8(8), uint8(0), uint8(3))
	f.Fuzz(func(t *testing.T, seed uint64, nGroups, roots, depth, fanout uint8) {
		ng := 1 + int(nGroups)%8
		nr := int(roots) % 9
		dp := int(depth) % 4
		fo := int(fanout) % 4
		s := New(Options{P: 4, Seed: seed})
		defer s.Shutdown()

		// treeSize is the node count of one root's spawn tree.
		treeSize := 1
		pow := 1
		for d := 0; d < dp; d++ {
			pow *= fo
			treeSize += pow
		}

		counts := make([]atomic.Int64, ng)
		gs := make([]*Group, ng)
		for i := range gs {
			gs[i] = s.NewGroup()
		}
		// joined decides the edge kind of the child at tree position id.
		joined := func(id uint64) bool {
			z := (seed ^ id) * 0x9e3779b97f4a7c15
			return (z^(z>>29))&1 == 1
		}
		var rec func(ctx *Ctx, c *atomic.Int64, d int, id uint64)
		rec = func(ctx *Ctx, c *atomic.Int64, d int, id uint64) {
			c.Add(1)
			if d == 0 {
				return
			}
			var tg TaskGroup
			for j := 0; j < fo; j++ {
				child := id*4 + uint64(j) + 1
				t := Solo(func(cc *Ctx) { rec(cc, c, d-1, child) })
				if joined(child) {
					tg.Spawn(ctx, t)
				} else {
					ctx.Spawn(t)
				}
			}
			tg.Wait(ctx)
		}
		// Interleave the root spawns round-robin across the groups so the
		// groups' trees grow and drain concurrently.
		for r := 0; r < nr; r++ {
			for i, g := range gs {
				c := &counts[i]
				g.Spawn(Solo(func(ctx *Ctx) { rec(ctx, c, dp, 0) }))
			}
		}
		// Wait in a seed-dependent rotation; each Wait must see exactly its
		// own group's tree completed, no more and no less.
		for k := 0; k < ng; k++ {
			i := (k + int(seed%uint64(ng))) % ng
			gs[i].Wait()
			if p := gs[i].Pending(); p != 0 {
				t.Fatalf("group %d pending = %d after Wait", i, p)
			}
			want := int64(nr * treeSize)
			if got := counts[i].Load(); got != want {
				t.Fatalf("group %d observed %d tasks at Wait, want %d (roots=%d depth=%d fanout=%d)",
					i, got, want, nr, dp, fo)
			}
		}
		if s.Pending() != 0 {
			t.Fatalf("global pending = %d after all groups drained", s.Pending())
		}
	})
}
