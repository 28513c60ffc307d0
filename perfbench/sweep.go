package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"capred/internal/predictor"
	"capred/internal/sim"
	"capred/internal/trace"
)

// sweepExp is one registry experiment a sweep workload runs. drives is
// how many times each grid cell drives its trace: Fig 12 times each
// trace under five machine configurations, the others once. consumer
// is the function that pulls the trace's blocks: sim's Stepper
// (RunTrace) or cpu.Run, and its layer.
type sweepExp struct {
	name     string
	drives   int64
	consumer string
	layer    string
	run      func(sim.Config) (sim.Result, int)
}

var sweepExps = map[string]sweepExp{
	"fig5": {"fig5", 1, "StepBlock", "sim", func(c sim.Config) (sim.Result, int) {
		r := sim.Fig5(c)
		return r, r.Attempted
	}},
	"fig11": {"fig11", 1, "StepBlock", "sim", func(c sim.Config) (sim.Result, int) {
		r := sim.Fig11(c)
		return r, r.Attempted
	}},
	"tournament": {"tournament", 1, "StepBlock", "sim", func(c sim.Config) (sim.Result, int) {
		r := sim.Tournament(c)
		return r, r.Attempted
	}},
	"fig12": {"fig12", 5, "cpu.Run", "cpu", func(c sim.Config) (sim.Result, int) {
		r := sim.Fig12(c)
		return r, r.Attempted
	}},
}

// guard extracts a workload's deterministic simulated metric from an
// experiment result, when the experiment carries it.
func guard(r sim.Result) (float64, bool) {
	switch r := r.(type) {
	case sim.Fig5Result:
		// The hybrid's correct speculative accesses per load at gap 0,
		// pooled over the roster.
		var spec, loads int64
		for _, c := range r.Hybrid {
			spec += c.SpecCorrect
			loads += c.Loads
		}
		return 100 * float64(spec) / float64(max(loads, 1)), true
	case sim.Fig12Result:
		// The hybrid's speedup at gap 8 on the "Average" row.
		if n := len(r.Rows); n > 0 {
			return r.Rows[n-1].HybridGap8, true
		}
	}
	return 0, false
}

// goldenEvents and the stock roster reproduce the checked-in goldens.
const goldenEvents = 20_000

// goldenGate runs each experiment at the goldens' scale over the stock
// roster and compares its table byte for byte with
// internal/sim/testdata/<name>.golden. A mismatching table fails all of
// its cells.
func goldenGate(names []string, c *counts) error {
	cfg := sim.Config{EventsPerTrace: goldenEvents, Workers: 1, ReplayCache: trace.NewReplayCache(0)}
	for _, name := range names {
		e := sweepExps[name]
		want, err := os.ReadFile(filepath.Join("internal", "sim", "testdata", name+".golden"))
		if err != nil {
			return fmt.Errorf("golden gate: %w", err)
		}
		res, cells := e.run(cfg)
		c.attempted += int64(cells)
		if got := res.Table().String(); got != string(want) {
			c.failed += int64(cells)
			fmt.Fprintf(os.Stderr, "perfbench: %s table differs from its golden\n--- got ---\n%s--- want ---\n%s", name, got, want)
		} else {
			c.failed += int64(len(res.Failed()))
		}
	}
	return nil
}

// counts tallies operations attempted and failed.
type counts struct {
	attempted, failed int64
}

// sweep drives one sweep workload's experiments over the seeded cache on
// the serial scheduler.
type sweep struct {
	name  string
	exps  []sweepExp
	cfg   sim.Config
	cache *trace.ReplayCache
	// seeded is the cache's occupancy once the seeded roster is in it;
	// drives counts the trace opens the passes have made since.
	seeded trace.ReplayStats
	drives int64

	// ref holds the warm-up pass's tables and guard; every later pass
	// must reproduce them.
	ref      map[string]string
	refGuard float64
	hasGuard bool
	guard    float64

	counts
	// expSecs collects each experiment's wall time over traced passes.
	expSecs map[string][]float64
	// segs splits the last untraced pass at its cell boundaries.
	segs segClock
}

func newSweep(name string, expNames []string, cache *trace.ReplayCache) *sweep {
	s := &sweep{
		name:    name,
		cfg:     sim.Config{EventsPerTrace: rosterEvents, Workers: 1, ReplayCache: cache},
		cache:   cache,
		seeded:  cache.Stats(),
		ref:     make(map[string]string),
		expSecs: make(map[string][]float64),
	}
	for _, n := range expNames {
		s.exps = append(s.exps, sweepExps[n])
	}
	return s
}

// pass runs every experiment once and returns the trace events it drove.
// With tr non-nil it records pass, experiment and cell spans and charges
// the predictor's and the trace source's time to child spans of each
// cell.
func (s *sweep) pass(tr *tracer, run string) int64 {
	var events int64
	var parent, start int64
	if tr != nil {
		parent, start = tr.id(), tr.now()
		defer func() { tr.record(parent, 0, run, "pass", noLayer, start) }()
	}
	s.segs = segClock{}
	for _, e := range s.exps {
		cfg := s.cfg
		var ct *cellTracer
		if tr != nil {
			ct = newCellTracer(tr, run, e, parent)
			ct.install(&cfg)
		} else {
			cfg.Progress = func(int, int) { s.segs.cut() }
			s.segs.start()
		}
		t0 := time.Now()
		res, cells := e.run(cfg)
		if ct != nil {
			ct.finish()
			s.expSecs[e.name] = append(s.expSecs[e.name], time.Since(t0).Seconds())
		} else {
			s.segs.cut()
		}
		events += int64(cells) * e.drives * rosterEvents
		s.drives += int64(cells) * e.drives
		s.check(e, res, cells, tr != nil)
	}
	return events
}

// checkCache asserts that every pass replayed only the seeded streams:
// no misses, no new entries, and one hit per trace drive. An experiment
// opening a key the benchmark did not pre-materialise would add an entry
// and run a stock trace instead of the seeded one, so every cell fails.
func (s *sweep) checkCache() {
	a, b := s.seeded, s.cache.Stats()
	if b.Entries != a.Entries || b.Misses != 0 || b.Rejected != 0 || b.Hits-a.Hits != s.drives {
		fmt.Fprintf(os.Stderr, "perfbench: %s: replay cache went from %v to %v over %d trace drives\n", s.name, a, b, s.drives)
		s.failed = s.attempted
	}
}

// check counts the experiment's cells and fails those that the
// experiment reported, or all of them when its output drifts from the
// warm-up pass. Traced passes wrap the predictor, which hides the
// tournament's per-component statistics from its table, so they are
// checked on the guard metric alone.
func (s *sweep) check(e sweepExp, res sim.Result, cells int, traced bool) {
	s.attempted += int64(cells)
	failed := int64(len(res.Failed()))
	if g, ok := guard(res); ok {
		s.guard = g
		if !s.hasGuard {
			s.refGuard, s.hasGuard = g, true
		} else if g != s.refGuard {
			fmt.Fprintf(os.Stderr, "perfbench: %s %s guard %v differs from warm-up %v\n", s.name, e.name, g, s.refGuard)
			failed = int64(cells)
		}
	}
	if !traced {
		table := res.Table().String()
		if ref, ok := s.ref[e.name]; !ok {
			s.ref[e.name] = table
		} else if table != ref {
			fmt.Fprintf(os.Stderr, "perfbench: %s %s table differs from the warm-up pass\n", s.name, e.name)
			failed = int64(cells)
		}
	}
	s.failed += failed
}

// cellTracer turns the scheduler's Progress callbacks into one span per
// grid cell, and wraps the predictor and trace source so their time
// becomes aggregated children of the cell. The source wrapper also
// times the gaps between its NextBlock calls: that is the consumer's
// time (StepBlock or cpu.Run's block loop), predictor calls included,
// so the predictor span is the consumer span's child. What is left of
// the cell is no layer's. The serial scheduler calls Progress on the
// goroutine that ran the cell, so no locking is needed.
type cellTracer struct {
	tr     *tracer
	run    string
	exp    sweepExp
	expID  int64
	parent int64
	start  int64

	cellID    int64
	cellStart int64

	predict, resolve, source, consumer clock
}

func newCellTracer(tr *tracer, run string, e sweepExp, parent int64) *cellTracer {
	ct := &cellTracer{tr: tr, run: run, exp: e, parent: parent, expID: tr.id(), start: tr.now()}
	ct.predict = newClock(tr, 16)
	ct.resolve = newClock(tr, 16)
	ct.source = newClock(tr, 1)
	ct.consumer = newClock(tr, 1)
	ct.cellID, ct.cellStart = tr.id(), ct.start
	return ct
}

func (ct *cellTracer) install(cfg *sim.Config) {
	cfg.Progress = ct.progress
	cfg.WrapFactory = func(_ string, f sim.Factory) sim.Factory {
		return func() predictor.Predictor {
			return &timedPredictor{p: f(), predict: &ct.predict, resolve: &ct.resolve}
		}
	}
	cfg.WrapSource = func(_ string, src trace.Source) trace.Source {
		return &timedSource{Source: src, bs: trace.AsBlocks(src), tr: ct.tr, source: &ct.source, consumer: &ct.consumer}
	}
}

func (ct *cellTracer) progress(done, total int) {
	now := ct.tr.now()
	ct.flush(ct.cellID, ct.cellStart)
	ct.tr.add(span{ID: ct.cellID, Parent: ct.expID, Run: ct.run,
		Name:  fmt.Sprintf("%s cell %d/%d", ct.exp.name, done, total),
		Layer: noLayer, Start: ct.cellStart, End: now})
	ct.cellID, ct.cellStart = ct.tr.id(), now
}

func (ct *cellTracer) flush(parent, start int64) {
	c := flushClocks(ct.tr, parent, ct.run, ct.exp.consumer, ct.exp.layer, start, &ct.consumer)
	flushClocks(ct.tr, c, ct.run, "predict+resolve", "predictor", start, &ct.predict, &ct.resolve)
	flushClocks(ct.tr, parent, ct.run, "replay NextBlock", "trace", start, &ct.source)
}

// finish closes the experiment span; time after the last cell (merging
// the grid, rendering) is the experiment's own.
func (ct *cellTracer) finish() {
	ct.flush(ct.expID, ct.start)
	ct.tr.record(ct.expID, ct.parent, ct.run, "experiment "+ct.exp.name, noLayer, ct.start)
}

// timedPredictor charges sampled Predict and Resolve calls to clocks.
type timedPredictor struct {
	p                predictor.Predictor
	predict, resolve *clock
}

func (t *timedPredictor) Predict(ref predictor.LoadRef) predictor.Prediction {
	if !t.predict.sample() {
		return t.p.Predict(ref)
	}
	t0 := time.Now()
	pr := t.p.Predict(ref)
	t.predict.add(time.Since(t0))
	return pr
}

func (t *timedPredictor) Resolve(ref predictor.LoadRef, p predictor.Prediction, actual uint32) {
	if !t.resolve.sample() {
		t.p.Resolve(ref, p, actual)
		return
	}
	t0 := time.Now()
	t.p.Resolve(ref, p, actual)
	t.resolve.add(time.Since(t0))
}

func (t *timedPredictor) Name() string { return t.p.Name() }

// timedSource charges every NextBlock call to the source clock and
// every gap between two calls to the consumer clock, keeping the
// source's zero-copy block path. The time before the first call and
// after the last is not the consumer's block loop and stays with the
// cell.
type timedSource struct {
	trace.Source
	bs               trace.BlockSource
	tr               *tracer
	source, consumer *clock
	last             int64 // when the previous NextBlock returned; 0 before the first
}

func (t *timedSource) NextBlock(b *trace.Block, max int) (int, bool) {
	t0 := t.tr.now()
	if t.last != 0 {
		t.consumer.sample()
		t.consumer.add(time.Duration(t0 - t.last))
	}
	n, ok := t.bs.NextBlock(b, max)
	t.last = t.tr.now()
	t.source.sample()
	t.source.add(time.Duration(t.last - t0))
	return n, ok
}

// segClock splits an untraced sweep pass into segments: each cell, cut
// at the serial scheduler's Progress callback, and the time after an
// experiment's last cell. The serial scheduler runs the cells in the
// same order on every pass, so segment i is the same work on every
// pass.
type segClock struct {
	last      time.Time
	lastCPU   time.Duration
	wall, cpu []time.Duration
}

func (c *segClock) start() { c.last, c.lastCPU = time.Now(), cpuTime() }

func (c *segClock) cut() {
	now, cp := time.Now(), cpuTime()
	c.wall = append(c.wall, now.Sub(c.last))
	c.cpu = append(c.cpu, cp-c.lastCPU)
	c.last, c.lastCPU = now, cp
}
