package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval recorded by the benchmark's own code around
// a call into the program. Agg marks a span that sums many short calls
// (a predictor's Predict/Resolve, a source's NextBlock) made inside its
// parent: its duration is the summed time, its start is the parent's.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Run    string `json:"run"`
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Agg    int64  `json:"agg_calls,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// noLayer marks a span whose self time belongs to no measured layer:
// the benchmark's own bookkeeping, and inside a scheduler cell or an
// experiment whatever happens outside the timed calls (building
// predictors and machines, opening cursors, merging results). Its self
// time is reported as unattributed.
const noLayer = "none"

// tracer keeps spans in memory until the run ends.
type tracer struct {
	epoch time.Time
	ids   atomic.Int64

	mu    sync.Mutex
	spans []span

	// clockNs is the measured cost of one clock read, subtracted from
	// each sampled call so the sampled layers are not charged for the
	// timer itself.
	clockNs int64
}

func newTracer() *tracer {
	t := &tracer{epoch: time.Now()}
	t.clockNs = calibrateClock()
	return t
}

// now returns nanoseconds since the tracer's epoch (monotonic).
func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// id allocates a span id before the span ends, so children can link to
// it while it is open.
func (t *tracer) id() int64 { return t.ids.Add(1) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// record closes a span that started at start.
func (t *tracer) record(id, parent int64, run, name, layer string, start int64) {
	t.add(span{ID: id, Parent: parent, Run: run, Name: name, Layer: layer, Start: start, End: t.now()})
}

// snapshot returns the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write stores every span as one JSON line.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func calibrateClock() int64 {
	const n = 4096
	xs := make([]float64, n)
	for i := range xs {
		t0 := time.Now()
		xs[i] = float64(time.Since(t0))
	}
	return int64(median(xs))
}

// layerTimes is the self time of each layer over a set of spans: a
// span's duration minus its children's. Children in this benchmark never
// overlap one another, so the subtraction is exact.
func layerTimes(spans []span) map[string]int64 {
	child := make(map[int64]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			child[s.Parent] += s.dur()
		}
	}
	out := make(map[string]int64)
	for _, s := range spans {
		out[s.Layer] += s.dur() - child[s.ID]
	}
	return out
}

// clock accumulates sampled call time for one kind of call. About one
// call in every is timed, picked by a xorshift draw so periodic code
// paths cannot line up with the sampling, and the sum is scaled up,
// which keeps the timer's cost off most calls.
type clock struct {
	tr    *tracer
	every uint32
	rng   uint32
	calls int64
	ns    int64
}

// newClock times about one call in every; every 1 times them all.
func newClock(tr *tracer, every uint32) clock {
	return clock{tr: tr, every: every, rng: 0x9e3779b9}
}

func (c *clock) sample() bool {
	c.calls++
	if c.every <= 1 {
		return true
	}
	c.rng ^= c.rng << 13
	c.rng ^= c.rng >> 17
	c.rng ^= c.rng << 5
	return c.rng%c.every == 0
}

func (c *clock) add(d time.Duration) {
	if ns := int64(d) - c.tr.clockNs; ns > 0 {
		c.ns += ns
	}
}

// flushClocks records the estimated time inside the sampled calls of cs
// as one aggregated child span of parent, resets the clocks, and returns
// the span's id, or parent when there were no calls.
func flushClocks(tr *tracer, parent int64, run, name, layer string, start int64, cs ...*clock) int64 {
	var calls, ns int64
	for _, c := range cs {
		calls += c.calls
		ns += c.ns * int64(max(c.every, 1))
		c.calls, c.ns = 0, 0
	}
	if calls == 0 {
		return parent
	}
	id := tr.id()
	tr.add(span{ID: id, Parent: parent, Run: run, Name: name, Layer: layer,
		Start: start, End: start + ns, Agg: calls})
	return id
}
