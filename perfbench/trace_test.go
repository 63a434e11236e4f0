package main

import (
	"testing"
	"time"
)

func TestChromeEventsNestAndBalance(t *testing.T) {
	r := newRecorder()
	ms := time.Millisecond
	// Two clients, spans recorded in completion order as a client does.
	r.spans = []span{
		{name: "server.submit", track: 1, op: 1, begin: 1 * ms, end: 2 * ms},
		{name: "server.wait", track: 2, op: 2, begin: 1 * ms, end: 5 * ms},
		{name: "server.result", track: 1, op: 1, begin: 2 * ms, end: 3 * ms},
		{name: "op", track: 1, op: 1, begin: 1 * ms, end: 3 * ms},
		{name: "op", track: 2, op: 2, begin: 1 * ms, end: 5 * ms},
		{name: "op", track: 1, op: 3, begin: 3 * ms, end: 4 * ms},
		{name: "grt.build", track: 0, op: 0, begin: 0, end: 1 * ms},
	}
	evs := r.chromeEvents()
	if len(evs) != 2*len(r.spans) {
		t.Fatalf("%d events for %d spans", len(evs), len(r.spans))
	}
	stacks := map[int][]string{}
	last := map[int]float64{}
	for i, e := range evs {
		if e.TS < last[e.TID] {
			t.Fatalf("event %d: ts goes backwards on track %d", i, e.TID)
		}
		last[e.TID] = e.TS
		switch e.Ph {
		case "B":
			stacks[e.TID] = append(stacks[e.TID], e.Name)
		case "E":
			st := stacks[e.TID]
			if len(st) == 0 || st[len(st)-1] != e.Name {
				t.Fatalf("event %d: E %q does not close the innermost span %v", i, e.Name, st)
			}
			stacks[e.TID] = st[:len(st)-1]
		}
	}
	for tr, st := range stacks {
		if len(st) != 0 {
			t.Fatalf("track %d left open: %v", tr, st)
		}
	}
	// The op span opens before its children on the same start time.
	for i, e := range evs {
		if e.Name == "server.submit" && e.Ph == "B" && (i == 0 || evs[i-1].Name != "op") {
			t.Fatalf("submit not nested in its op: %+v", evs)
		}
	}
}

func TestNilRecorderRecordsNothing(t *testing.T) {
	var r *recorder
	r.start(1, 1, "op")()
	if d := r.durationsMs("op"); d != nil {
		t.Fatalf("nil recorder returned %v", d)
	}
}
