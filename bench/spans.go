package main

import (
	"bufio"
	"cmp"
	"encoding/json"
	"fmt"
	"os"
	"slices"
)

// spanName identifies the layer boundary a span wraps. Spans are recorded
// from the harness side only, around the calls into each layer.
type spanName uint8

const (
	spRequest     spanName = iota // one request, start (or due time) to verified
	spGenWait                     // open loop: due time → an issuer picked the request up
	spStageInput                  // copy of the input into the client's scratch
	spRuntimeCall                 // the public call under test
	spVerify                      // output check
	spGroupSpawn                  // finegrain: Group.Spawn call
	spQueueWait                   // finegrain: Spawn returned → root body starts
	spExecAndWake                 // finegrain: root body starts → Group.Wait returns
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"request", "gen_wait", "stage_input", "runtime_call", "verify",
	"group_spawn", "queue_wait", "exec_and_wake",
}

func (n spanName) String() string { return spanNames[n] }

// span is one recorded interval. Parent is the index of the enclosing span
// in the same buffer (−1 for a request span); spans of one request share Req.
type span struct {
	Parent int32
	Req    int32
	Client int16
	Name   spanName
	Start  int64 // ns since the run's time base
	End    int64
}

// Parent values that are not an index.
const (
	noParent    int32 = -1 // a request span
	droppedSpan int32 = -2 // returned by add for a span it did not store
)

// spanBuf is one client's preallocated span store. add never allocates: a
// full buffer drops the span and counts it.
type spanBuf struct {
	spans   []span
	dropped int
}

func newSpanBuf(capacity int) *spanBuf {
	return &spanBuf{spans: make([]span, 0, capacity)}
}

// add records a span and returns its index, or droppedSpan when the buffer
// is full. A span whose parent was dropped is dropped too, so every stored
// span has its whole ancestry.
func (b *spanBuf) add(parent int32, req int32, client int, name spanName, start, end int64) int32 {
	if len(b.spans) == cap(b.spans) || parent == droppedSpan {
		b.dropped++
		return droppedSpan
	}
	b.spans = append(b.spans, span{Parent: parent, Req: req, Client: int16(client), Name: name, Start: start, End: end})
	return int32(len(b.spans) - 1)
}

// mergeSpans concatenates the clients' buffers, rebasing parent indices.
func mergeSpans(bufs []*spanBuf) (all []span, dropped int) {
	for _, b := range bufs {
		base := int32(len(all))
		for _, s := range b.spans {
			if s.Parent >= 0 {
				s.Parent += base
			}
			all = append(all, s)
		}
		dropped += b.dropped
	}
	return all, dropped
}

// selfTimes returns, for every span, its duration minus the part of its
// interval covered by its children (overlapping children count once,
// children are clipped to the parent).
func selfTimes(spans []span) []int64 {
	kids := make(map[int32][]int32)
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], int32(i))
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start
		ks := kids[int32(i)]
		if len(ks) == 0 {
			continue
		}
		slices.SortFunc(ks, func(a, b int32) int { return cmp.Compare(spans[a].Start, spans[b].Start) })
		covered, curLo, curHi := int64(0), s.Start, s.Start
		for _, k := range ks {
			lo, hi := max(spans[k].Start, s.Start), min(spans[k].End, s.End)
			if hi <= lo {
				continue
			}
			if lo > curHi {
				covered += curHi - curLo
				curLo, curHi = lo, hi
			} else if hi > curHi {
				curHi = hi
			}
		}
		covered += curHi - curLo
		self[i] -= covered
	}
	return self
}

// spanStats is what the traced run derives from the recorded spans.
type spanStats struct {
	self       []int64               // self time of every span, by index
	selfByName [numSpanNames][]int64 // ascending self times per span name
	requests   int
	// closureErr is the largest relative difference, over the recorded
	// requests, between a request span's duration and the sum of the self
	// times of every span of that request. The self-time rule makes it 0 for
	// properly nested spans; the run fails if it exceeds 1 %.
	closureErr float64
}

func analyzeSpans(spans []span) spanStats {
	st := spanStats{self: selfTimes(spans)}
	self := st.self
	// root[i] is the request span that span i belongs to.
	root := make([]int32, len(spans))
	sum := make(map[int32]int64)
	for i, s := range spans {
		if s.Parent < 0 {
			root[i] = int32(i)
			st.requests++
		} else {
			root[i] = root[s.Parent] // a parent is always stored before its children
		}
		sum[root[i]] += self[i]
		st.selfByName[s.Name] = append(st.selfByName[s.Name], self[i])
	}
	for r, total := range sum {
		if d := spans[r].End - spans[r].Start; d > 0 {
			if e := float64(max(total-d, d-total)) / float64(d); e > st.closureErr {
				st.closureErr = e
			}
		}
	}
	for i := range st.selfByName {
		slices.Sort(st.selfByName[i])
	}
	return st
}

// spanJSON is the on-disk form of one span.
type spanJSON struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // -1: none
	Req     int32  `json:"req"`
	Client  int16  `json:"client"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	SelfNS  int64  `json:"self_ns"`
}

// writeSpans writes the spans of one traced run, with their self times, as
// one JSON document with one span per line.
func writeSpans(path, workload string, seed uint64, every int, spans []span, self []int64, dropped int) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "{\"workload\": %q, \"seed\": %d, \"every_nth_request\": %d, \"dropped\": %d, \"spans\": [\n",
		workload, seed, every, dropped)
	for i, s := range spans {
		line, err := json.Marshal(spanJSON{ID: i, Parent: int(s.Parent), Req: s.Req, Client: s.Client,
			Name: s.Name.String(), StartNS: s.Start, EndNS: s.End, SelfNS: self[i]})
		if err != nil {
			return err
		}
		w.Write(line)
		if i < len(spans)-1 {
			w.WriteByte(',')
		}
		w.WriteByte('\n')
	}
	w.WriteString("]}\n")
	return w.Flush()
}
