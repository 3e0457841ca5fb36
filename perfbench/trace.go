package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's own
// side of the call. Spans of one replayed request share Req.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    int64  `json:"req,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer was made
	End    int64  `json:"end_ns"`
}

// tracer keeps spans and counted values in memory until the run ends.
// Every method is a no-op on a nil tracer, so untraced runs pay nothing
// but the nil checks.
type tracer struct {
	mu     sync.Mutex
	t0     time.Time
	spans  []span
	values map[string][]float64
}

func newTracer() *tracer { return &tracer{t0: time.Now(), values: map[string][]float64{}} }

// start opens a span and returns its id (0 on a nil tracer).
func (t *tracer) start(name string, parent, req int64) int64 {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: now})
	return id
}

// end closes span id.
func (t *tracer) end(id int64) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// add records a span that was timed elsewhere (a client-side wire time).
func (t *tracer) add(name string, parent, req int64, start time.Time, d time.Duration) int64 {
	if t == nil {
		return 0
	}
	s := start.Sub(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: s, End: s + d.Nanoseconds()})
	return id
}

// value records one counted quantity (iterations, bytes, counters).
func (t *tracer) value(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.values[name] = append(t.values[name], v)
	t.mu.Unlock()
}

func (t *tracer) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// durations returns the durations of every closed span named name.
func (t *tracer) durations(name string) []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name && s.End >= s.Start && s.End > 0 {
			out = append(out, time.Duration(s.End-s.Start))
		}
	}
	return out
}

func (t *tracer) valuesOf(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]float64(nil), t.values[name]...)
}

// write saves the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerMetrics turns the tracer's spans and values into the per-layer
// metrics of layerTable that this run produced samples for: the median
// span duration in the metric's unit, or the median counted value.
func (t *tracer) layerMetrics() (map[string]metric, error) {
	out := map[string]metric{}
	for _, l := range layerTable {
		var xs []float64
		if l.span != "" {
			for _, d := range t.durations(l.span) {
				xs = append(xs, float64(d)/float64(unitScale(l.unit)))
			}
		} else {
			xs = t.valuesOf(l.name)
		}
		if len(xs) == 0 {
			continue
		}
		v := median(xs)
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("layer metric %s is %v", l.name, v)
		}
		out[l.name] = metric{Value: v, Unit: l.unit, n: len(xs)}
	}
	return out, nil
}

func unitScale(unit string) time.Duration {
	switch unit {
	case "us":
		return time.Microsecond
	case "ms":
		return time.Millisecond
	case "s":
		return time.Second
	}
	return 1
}
