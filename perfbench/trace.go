package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strconv"
	"sync"
	"time"
)

// span is one call into a layer, timed by the benchmark from outside. Spans
// of one op share its op id; track is the client (0 for set-up).
type span struct {
	name       string
	track      int
	op         int64
	begin, end time.Duration
}

// recorder keeps spans in memory while on; a nil recorder records nothing,
// which is how the untraced runs use it.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// start opens a span and returns the function that closes it.
func (r *recorder) start(track int, op int64, name string) func() {
	if r == nil {
		return func() {}
	}
	b := time.Since(r.t0)
	return func() {
		e := time.Since(r.t0)
		r.mu.Lock()
		r.spans = append(r.spans, span{name: name, track: track, op: op, begin: b, end: e})
		r.mu.Unlock()
	}
}

// durationsMs returns the duration in ms of every span with the given name.
func (r *recorder) durationsMs(name string) []float64 {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []float64
	for _, s := range r.spans {
		if s.name == name {
			out = append(out, float64(s.end-s.begin)/1e6)
		}
	}
	return out
}

// chromeEvent is one Chrome trace_event entry; ts is in microseconds.
type chromeEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat"`
	Ph   string            `json:"ph"`
	TS   float64           `json:"ts"`
	PID  int               `json:"pid"`
	TID  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

// chromeEvents turns the spans into B/E pairs, one track per client. Spans
// on a track nest, because each client makes its calls one at a time, so
// ordering them by start (outer first on ties) and closing every open span
// that ended by the next start yields balanced, time-ordered pairs.
func (r *recorder) chromeEvents() []chromeEvent {
	r.mu.Lock()
	spans := append([]span(nil), r.spans...)
	r.mu.Unlock()
	sort.SliceStable(spans, func(i, j int) bool {
		a, b := spans[i], spans[j]
		if a.track != b.track {
			return a.track < b.track
		}
		if a.begin != b.begin {
			return a.begin < b.begin
		}
		return a.end > b.end
	})
	us := func(d time.Duration) float64 { return float64(d) / 1e3 }
	var out []chromeEvent
	var open []span
	closeUntil := func(t time.Duration, track int) {
		for len(open) > 0 {
			top := open[len(open)-1]
			if top.track == track && top.end > t {
				return
			}
			out = append(out, chromeEvent{Name: top.name, Cat: "bench", Ph: "E", TS: us(top.end), PID: 1, TID: top.track})
			open = open[:len(open)-1]
		}
	}
	for _, s := range spans {
		closeUntil(s.begin, s.track)
		out = append(out, chromeEvent{Name: s.name, Cat: "bench", Ph: "B", TS: us(s.begin), PID: 1, TID: s.track,
			Args: map[string]string{"op": strconv.FormatInt(s.op, 10)}})
		open = append(open, s)
	}
	closeUntil(1<<62, -1)
	return out
}

// writeChrome writes the spans as a Chrome trace_event JSON array.
func (r *recorder) writeChrome(path string) error {
	data, err := json.Marshal(r.chromeEvents())
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return nil
}
