package par

import "repro/internal/core"

// Packer is the shared state of a team compaction: one padded count slot
// per member. Allocate once per task with NewPacker and share via the task
// closure.
type Packer[T any] struct {
	counts []slot[int]
}

// NewPacker returns compaction state for teams of up to np members.
func NewPacker[T any](np int) *Packer[T] {
	return &Packer[T]{counts: make([]slot[int], np)}
}

// Pack is a collective stable compaction: the elements src[i] with
// keep(i, src[i]) true are copied into dst in their original order, and
// the kept count n is returned to every member. It is the flag-scan +
// scatter pattern: each member counts the keeps of its static chunk
// (Chunk), the counts are scanned exclusively across the team barrier
// (Offsets), and each member scatters its survivors starting at its prefix
// offset — chunks are contiguous and in member order, so stability is free.
//
// Neither loop jumps on keep's answer: the count adds it (B2i), and the
// scatter stores every element at the write cursor and advances the cursor
// by it — the next element overwrites a rejected one — until the member's
// count is reached. So only dst[:n] is written (a dst of exactly n elements
// suffices), each member inside its own range of it even if keep answers
// differently the second time; keep should be pure and is evaluated at most
// twice per index. dst must not alias src. A team of size 1 runs the
// sequential oracle.
func (p *Packer[T]) Pack(ctx *core.Ctx, src, dst []T, keep func(i int, v T) bool) int {
	n := p.pack(ctx, src, dst, keep)
	ctx.Barrier()
	return n
}

func (p *Packer[T]) pack(ctx *core.Ctx, src, dst []T, keep func(i int, v T) bool) int {
	w, lid := ctx.TeamSize(), ctx.LocalID()
	if w == 1 {
		return SeqPack(src, dst, keep)
	}
	lo, hi := Chunk(lid, w, len(src))
	s := src[lo:hi]
	c := 0
	for i, v := range s {
		c += B2i(keep(lo+i, v)) //repro:asm call
	}
	off, total := p.Offsets(ctx, c)
	d := dst[off : off+c]
	for i, j := 0, 0; i < len(s) && j < len(d); i++ {
		d[j] = s[i]
		j += B2i(keep(lo+i, s[i])) //repro:asm call
	}
	return total
}

// Offsets is the middle of a compaction, for a caller with count and scatter
// loops of its own (internal/query's Filter, whose predicate takes no index):
// every member passes the survivor count c of its static chunk and gets back,
// across the team barrier, where its survivors start in dst (the exclusive
// prefix in member order) and the total. The caller owes the trailing barrier.
func (p *Packer[T]) Offsets(ctx *core.Ctx, c int) (off, total int) {
	w, lid := ctx.TeamSize(), ctx.LocalID()
	checkTeam(w, len(p.counts))
	p.counts[lid].v = c
	ctx.Barrier()
	for m := 0; m < w; m++ {
		if m == lid {
			off = total
		}
		total += p.counts[m].v
	}
	return off, total
}

// B2i is what a branch-free loop adds where a branchy one jumps: this shape
// compiles to SETcc/MOVZX (the //repro:asm lines of pack and filter, the
// bodies of Pack and query's Filter, qsort's scans and merges and ssort's
// classify hold it to that). It is generic because a generic body is inlined
// into a kernel's go.shape instantiation whichever package compiles that; a
// plain func was only where that package itself imported par, so a program
// whose main package imports only the root package CALLed it from every
// kernel.
func B2i[B ~bool](b B) int {
	if b {
		return 1
	}
	return 0
}

// SeqPack is the sequential oracle of Pack.
func SeqPack[T any](src, dst []T, keep func(i int, v T) bool) int {
	j := 0
	for i, v := range src {
		if keep(i, v) {
			dst[j] = v
			j++
		}
	}
	return j
}

// Pack returns a team task of np members stably compacting the kept
// elements of src into dst; the kept count is stored into *outN when
// non-nil. dst must not alias src.
func Pack[T any](np int, src, dst []T, keep func(i int, v T) bool, outN *int) core.Task {
	p := NewPacker[T](np)
	return core.Func(np, func(ctx *core.Ctx) {
		n := p.Pack(ctx, src, dst, keep)
		if ctx.LocalID() == 0 && outN != nil {
			*outN = n
		}
	})
}
