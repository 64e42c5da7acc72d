package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func TestSelfTimeSubtractsChildren(t *testing.T) {
	spans := []span{
		{Parent: noParent, Name: spRequest, Start: 0, End: 100},
		{Parent: 0, Name: spStageInput, Start: 0, End: 10},
		{Parent: 0, Name: spRuntimeCall, Start: 10, End: 90},
		{Parent: 2, Name: spGroupSpawn, Start: 10, End: 20},
		{Parent: 2, Name: spExecAndWake, Start: 30, End: 90},
		{Parent: 0, Name: spVerify, Start: 90, End: 95},
	}
	want := []int64{5, 10, 10, 10, 60, 5}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d (%v): self %d, want %d", i, spans[i].Name, got[i], want[i])
		}
	}
	st := analyzeSpans(spans)
	if st.requests != 1 || st.closureErr != 0 {
		t.Errorf("requests %d closure error %g, want 1 and 0", st.requests, st.closureErr)
	}
}

func TestSelfTimeOverlappingAndOverhangingChildren(t *testing.T) {
	spans := []span{
		{Parent: noParent, Start: 100, End: 200},
		{Parent: 0, Start: 110, End: 150},
		{Parent: 0, Start: 140, End: 160}, // overlaps the previous child: counted once
		{Parent: 0, Start: 190, End: 250}, // overhangs the parent: clipped
		{Parent: 0, Start: 50, End: 60},   // outside the parent: ignored
	}
	if got := selfTimes(spans)[0]; got != 100-50-10 {
		t.Errorf("self %d, want 40", got)
	}
}

func TestMergeSpansRebasesParents(t *testing.T) {
	a, b := newSpanBuf(4), newSpanBuf(2)
	ra := a.add(noParent, 7, 0, spRequest, 0, 10)
	a.add(ra, 7, 0, spRuntimeCall, 1, 9)
	rb := b.add(noParent, 3, 1, spRequest, 5, 25)
	cb := b.add(rb, 3, 1, spRuntimeCall, 6, 20)
	// b is full now: the span and its would-be child are dropped together.
	if d := b.add(cb, 3, 1, spExecAndWake, 7, 19); d != droppedSpan {
		t.Fatalf("add on a full buffer returned %d", d)
	}
	if d := b.add(droppedSpan, 3, 1, spVerify, 20, 25); d != droppedSpan {
		t.Fatalf("child of a dropped span was stored")
	}
	all, dropped := mergeSpans([]*spanBuf{a, b})
	if len(all) != 4 || dropped != 2 {
		t.Fatalf("merged %d spans, %d dropped; want 4 and 2", len(all), dropped)
	}
	for i, s := range all {
		if s.Parent == noParent {
			continue
		}
		p := all[s.Parent]
		if p.Req != s.Req || p.Client != s.Client || p.Start > s.Start || p.End < s.End {
			t.Errorf("span %d: parent %d does not enclose it (%+v in %+v)", i, s.Parent, s, p)
		}
	}
}

func TestWriteSpansIsValidJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "w.spans.json")
	spans := []span{{Parent: noParent, Req: 1, Start: 0, End: 10}, {Parent: 0, Req: 1, Name: spVerify, Start: 8, End: 10}}
	if err := writeSpans(path, "w", 1, 1, spans, selfTimes(spans), 0); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workload string
		Spans    []spanJSON
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("spans file does not parse: %v", err)
	}
	if doc.Workload != "w" || len(doc.Spans) != 2 || doc.Spans[1].Parent != 0 || doc.Spans[0].SelfNS != 8 {
		t.Errorf("round trip lost data: %+v", doc)
	}
}
