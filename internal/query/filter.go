package query

import (
	"repro/internal/core"
	"repro/internal/par"
)

// Filterer is the shared state of a team filter, a compaction's per-member
// counts. Allocate once per task with NewFilterer, share via the closure.
type Filterer[T any] struct {
	p *par.Packer[T]
}

// NewFilterer returns filter state for teams of up to np members.
func NewFilterer[T any](np int) *Filterer[T] {
	return &Filterer[T]{p: par.NewPacker[T](np)}
}

// Filter is a collective stable filter: the elements of src satisfying pred
// are copied into dst in their original order, and the surviving count n is
// returned to every member. It is par.Pack's count → Offsets → scatter with
// pred called directly, and under Pack's contract: neither loop jumps on
// pred's answer, pred is evaluated at most twice per element, only dst[:n]
// is written (a dst of exactly n elements suffices) and each member stays
// inside its own range of it. dst must not alias src. A team of size 1 runs
// the sequential oracle.
//
//repro:barrier every member must reach the trailing barrier before dst and the state are reusable
func (f *Filterer[T]) Filter(ctx *core.Ctx, src, dst []T, pred func(T) bool) int {
	w, lid := ctx.TeamSize(), ctx.LocalID()
	if w == 1 {
		return SeqFilter(src, dst, pred)
	}
	lo, hi := par.Chunk(lid, w, len(src))
	s := src[lo:hi]
	c := 0
	for _, v := range s {
		c += par.B2i(pred(v))
	}
	off, total := f.p.Offsets(ctx, c)
	d := dst[off : off+c]
	for i, j := 0, 0; i < len(s) && j < len(d); i++ {
		d[j] = s[i]
		j += par.B2i(pred(s[i]))
	}
	ctx.Barrier()
	return total
}

// SeqFilter is the sequential oracle of Filter.
func SeqFilter[T any](src, dst []T, pred func(T) bool) int {
	j := 0
	for _, v := range src {
		if pred(v) {
			dst[j] = v
			j++
		}
	}
	return j
}

// Filter returns a team task of np members stably filtering src into dst;
// the surviving count n is stored into *outN when non-nil. dst must not
// alias src; only dst[:n] is written.
func Filter[T any](np int, src, dst []T, pred func(T) bool, outN *int) core.Task {
	if np == 1 {
		return core.Solo(func(*core.Ctx) {
			n := SeqFilter(src, dst, pred)
			if outN != nil {
				*outN = n
			}
		})
	}
	f := NewFilterer[T](np)
	return core.Func(np, func(ctx *core.Ctx) {
		n := f.Filter(ctx, src, dst, pred)
		if ctx.LocalID() == 0 && outN != nil {
			*outN = n
		}
	})
}
