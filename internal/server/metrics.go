package server

// A minimal metrics registry rendering the Prometheus text exposition
// format, stdlib only. The server needs a handful of counters, a few
// callback gauges and two latency summaries; depending on a client
// library for that would be the project's first external dependency, so
// this implements exactly the subset /metrics needs: counter and gauge
// families with optional fixed label sets, summary families as
// _sum/_count pairs, deterministic render order.

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Var is one metric series: an atomic integer, rendered either as the
// integer itself or scaled by a fixed factor (latency sums count
// microseconds and render as seconds).
type Var struct {
	i     atomic.Int64
	fn    func() int64 // callback series (gauges computed at scrape time)
	scale float64      // 0 renders the raw integer; else value × scale
}

// Add increments the series.
func (v *Var) Add(n int64) { v.i.Add(n) }

// Inc increments the series by one.
func (v *Var) Inc() { v.i.Add(1) }

// Value returns the current value (callback series consult the callback).
func (v *Var) Value() int64 {
	if v.fn != nil {
		return v.fn()
	}
	return v.i.Load()
}

func (v *Var) render(w io.Writer, name, labels string) {
	series := name
	if labels != "" {
		series = name + "{" + labels + "}"
	}
	if v.scale != 0 {
		fmt.Fprintf(w, "%s %g\n", series, float64(v.Value())*v.scale)
	} else {
		fmt.Fprintf(w, "%s %d\n", series, v.Value())
	}
}

// family is one metric name: help, type and its series by label set.
type family struct {
	name, help, typ string
	order           []string // label strings in registration order
	series          map[string]*Var
}

// Registry holds the server's metric families and renders them in the
// Prometheus text format, sorted by family name for a stable scrape.
type Registry struct {
	mu   sync.Mutex
	fams map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{fams: make(map[string]*family)} }

func (r *Registry) register(name, help, typ, labels string, v *Var) *Var {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.fams[name]
	if f == nil {
		f = &family{name: name, help: help, typ: typ, series: make(map[string]*Var)}
		r.fams[name] = f
	}
	if f.typ != typ {
		panic(fmt.Sprintf("metrics: %s registered as %s and %s", name, f.typ, typ))
	}
	if existing, ok := f.series[labels]; ok {
		return existing
	}
	f.series[labels] = v
	f.order = append(f.order, labels)
	return v
}

// Counter registers (or returns the existing) monotonically-increasing
// series. labels is a pre-rendered Prometheus label set such as
// `predictor="hybrid"`, or "" for none.
func (r *Registry) Counter(name, help, labels string) *Var {
	return r.register(name, help, "counter", labels, &Var{})
}

// GaugeFunc registers a gauge whose value is computed at scrape time.
func (r *Registry) GaugeFunc(name, help, labels string, fn func() int64) {
	r.register(name, help, "gauge", labels, &Var{fn: fn})
}

// CounterFunc registers a counter whose value is read at scrape time
// from an existing monotonic source (e.g. an atomic the data path
// already maintains).
func (r *Registry) CounterFunc(name, help, labels string, fn func() int64) {
	r.register(name, help, "counter", labels, &Var{fn: fn})
}

// Timing is a latency summary: a _sum/_count pair under one family.
type Timing struct {
	sum   *Var // microseconds, rendered as seconds
	count *Var
}

// Timing registers a summary family <name> with <name>_sum (seconds) and
// <name>_count series.
func (r *Registry) Timing(name, help string) Timing {
	return Timing{
		sum:   r.register(name, help, "summary", "\x00sum", &Var{scale: 1e-6}),
		count: r.register(name, help, "summary", "\x00count", &Var{}),
	}
}

// Observe records one duration.
func (t Timing) Observe(d time.Duration) {
	t.sum.Add(d.Microseconds())
	t.count.Inc()
}

// Count returns the number of observations so far.
func (t Timing) Count() int64 { return t.count.Value() }

// Render writes every family in the text exposition format.
func (r *Registry) Render(w io.Writer) {
	r.mu.Lock()
	names := make([]string, 0, len(r.fams))
	for n := range r.fams {
		names = append(names, n)
	}
	sort.Strings(names)
	fams := make([]*family, len(names))
	for i, n := range names {
		fams[i] = r.fams[n]
	}
	r.mu.Unlock()

	for _, f := range fams {
		fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help)
		fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.typ)
		for _, labels := range f.order {
			v := f.series[labels]
			switch labels {
			case "\x00sum":
				v.render(w, f.name+"_sum", "")
			case "\x00count":
				v.render(w, f.name+"_count", "")
			default:
				v.render(w, f.name, labels)
			}
		}
	}
}
