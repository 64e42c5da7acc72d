package par

import "sync/atomic"

// Claimer hands out the blocks 0 … nb−1 of an array to any number of
// concurrent claimants from both ends — the end-pointer acquisition
// pattern of the paper's data-parallel partitioning step (§5): "Each
// thread takes one block from each side of the array … until we run out of
// free blocks". A shared budget guarantees that the two ends never overlap:
// exactly nb claims succeed in total, each returning a distinct block.
//
// Left hands out blocks 0, 1, 2, … and Right hands out nb−1, nb−2, …;
// which claim gets which block depends on the interleaving, but the sets
// {left-claimed} and {right-claimed} are always a prefix and a suffix of
// the block range (TakenLeft/TakenRight delimit them after the claimants
// are done).
type Claimer struct {
	nb        int
	remaining atomic.Int64 // blocks not yet claimed (may go negative)
	left      atomic.Int64 // blocks handed out from the low end
	right     atomic.Int64 // blocks handed out from the high end
}

// NewClaimer returns a claimer over the blocks 0 … nb−1.
func NewClaimer(nb int) *Claimer {
	c := &Claimer{}
	c.Init(nb)
	return c
}

// Init (re)sets c to hand out the blocks 0 … nb−1: a claimer embedded in
// pooled task state is reused once its previous claimants are done.
//
//repro:noalloc runs once per pooled partitioning step
func (c *Claimer) Init(nb int) {
	c.nb = nb
	c.remaining.Store(int64(nb))
	c.left.Store(0)
	c.right.Store(0)
}

// Left claims the next block from the low end; ok is false when all blocks
// are gone.
func (c *Claimer) Left() (block int, ok bool) {
	if c.remaining.Add(-1) < 0 {
		return 0, false
	}
	return int(c.left.Add(1)) - 1, true
}

// Right claims the next block from the high end; ok is false when all
// blocks are gone.
func (c *Claimer) Right() (block int, ok bool) {
	if c.remaining.Add(-1) < 0 {
		return 0, false
	}
	return c.nb - int(c.right.Add(1)), true
}

// TakenLeft returns how many blocks were claimed from the low end (the
// blocks 0 … TakenLeft()−1). Stable only once the claimants are done.
func (c *Claimer) TakenLeft() int { return int(c.left.Load()) }

// TakenRight returns how many blocks were claimed from the high end (the
// blocks nb−TakenRight() … nb−1). Stable only once the claimants are done.
func (c *Claimer) TakenRight() int { return int(c.right.Load()) }
