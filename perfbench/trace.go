package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the public function it calls. Spans of one job (a paper regeneration, a
// fleet population, a client session) share a trace id.
type span struct {
	Name   string `json:"name"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Trace  uint64 `json:"trace"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Mark is an inner timestamp: for a client fetch, when the response
	// headers arrived.
	Mark int64 `json:"mark_ns,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced code paths pay one nil check.
type tracer struct {
	t0    time.Time
	next  atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// newID returns a fresh span id (0 when t is nil).
func (t *tracer) newID() uint64 {
	if t == nil {
		return 0
	}
	return t.next.Add(1)
}

// add records a finished span.
func (t *tracer) add(name string, id, parent, trace uint64, start, end time.Time) {
	t.addMarked(name, id, parent, trace, start, time.Time{}, end)
}

// addMarked records a finished span with an inner timestamp (none when mark
// is zero).
func (t *tracer) addMarked(name string, id, parent, trace uint64, start, mark, end time.Time) {
	if t == nil {
		return
	}
	s := span{Name: name, ID: id, Parent: parent, Trace: trace,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))}
	if !mark.IsZero() {
		s.Mark = int64(mark.Sub(t.t0))
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// all returns the recorded spans.
func (t *tracer) all() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write stores the spans as JSONL under dir and returns the file path.
func (t *tracer) write(dir, workload string, seed int64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.all() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// selfTimes returns each span's duration minus the time its child spans
// cover, keyed by span id. Children on the measured paths run one after
// another, so their durations do not overlap.
func selfTimes(spans []span) map[uint64]time.Duration {
	self := make(map[uint64]time.Duration, len(spans))
	for _, s := range spans {
		self[s.ID] += s.dur()
	}
	for _, s := range spans {
		if _, ok := self[s.Parent]; ok && s.Parent != 0 {
			self[s.Parent] -= s.dur()
		}
	}
	return self
}

// attributionRow is one layer of the attribution table.
type attributionRow struct {
	Layer string  `json:"layer"`
	SelfS float64 `json:"self_s"`
	Share float64 `json:"share_of_end_to_end"`
}

// attribution is the per-workload attribution table: the summed self time
// of each layer on the blocking path against the end-to-end time of the
// traced jobs (the root spans), and the gap neither explains.
type attribution struct {
	EndToEndS float64          `json:"end_to_end_s"`
	Rows      []attributionRow `json:"layers"`
	SumSelfS  float64          `json:"sum_self_s"`
	GapS      float64          `json:"gap_s"`
	Gap       string           `json:"gap"`
}

// attribute builds the table for the given root span name; layers maps a
// span name to the layer it is reported under.
func attribute(spans []span, root string, layers map[string]string, order []string, gapNote string) attribution {
	self := selfTimes(spans)
	byLayer := make(map[string]float64)
	var a attribution
	for _, s := range spans {
		if s.Name == root {
			a.EndToEndS += s.dur().Seconds()
		}
		if l, ok := layers[s.Name]; ok {
			byLayer[l] += self[s.ID].Seconds()
		}
	}
	for _, l := range order {
		v := byLayer[l]
		a.Rows = append(a.Rows, attributionRow{Layer: l, SelfS: v, Share: share(v, a.EndToEndS)})
		a.SumSelfS += v
	}
	a.GapS = a.EndToEndS - a.SumSelfS
	a.Gap = gapNote
	return a
}
