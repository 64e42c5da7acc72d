package main

import (
	"context"
	"errors"

	"repro"
)

// checksum is the order-independent fingerprint of an input: a sorted output
// must carry the same one, so a sort that loses or duplicates elements is
// caught without keeping a sorted copy of every input.
type checksum struct {
	sum uint64
	xor uint32
}

func checksumOf(v []int32) checksum {
	var c checksum
	for _, x := range v {
		c.sum += uint64(uint32(x))
		c.xor ^= uint32(x)
	}
	return c
}

// sortedWith reports whether v is ascending and has the checksum want, in
// one pass.
func sortedWith(v []int32, want checksum) bool {
	var c checksum
	ok := true
	prev := int32(-1 << 31)
	for _, x := range v {
		ok = ok && x >= prev
		prev = x
		c.sum += uint64(uint32(x))
		c.xor ^= uint32(x)
	}
	return ok && c == want
}

// outcome classifies how one request ended. Everything but outOK counts into
// failed_share; outWrong additionally makes the run incorrect.
type outcome uint8

const (
	outOK        outcome = iota
	outWrong             // the call returned but the output does not verify
	outDeadline          // typed deadline error (a deadline miss is a failed request)
	outCanceled          // typed cancellation error
	outSaturated         // admission refused the request
	outShutdown          // the scheduler was shut down under the request
	outError             // any other error
	outRefused           // open loop: no issuer slot was free when the request came due
	numOutcomes
)

var outcomeNames = [numOutcomes]string{
	"ok", "wrong_output", "deadline", "canceled", "saturated", "shutdown", "error", "refused",
}

// classify maps the error of a public call to an outcome.
func classify(err error) outcome {
	switch {
	case err == nil:
		return outOK
	case errors.Is(err, repro.ErrDeadlineExceeded), errors.Is(err, context.DeadlineExceeded):
		return outDeadline
	case errors.Is(err, repro.ErrCanceled), errors.Is(err, context.Canceled):
		return outCanceled
	case errors.Is(err, repro.ErrSaturated):
		return outSaturated
	case errors.Is(err, repro.ErrShutdown):
		return outShutdown
	}
	return outError
}

func equalSlices[T comparable](a, b []T) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
