// Command perfbench is the repository's benchmark. It runs one named
// workload as a fresh process over a seeded 45-trace roster, checks the
// program's outputs, and prints every end-to-end metric by name with its
// unit. With -trace 1 it instead runs the traced pass over all three
// workloads and prints the per-layer metrics. See README.md.
//
// Run from the repository root, through the launcher that builds it:
//
//	bash perfbench/run.sh --workload sweep-predict --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is the result object; the line
// before it holds the noise diagnostics. Exit status is 0 on a correct
// run, 1 when an output check failed, 2 on a usage or set-up error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"capred/internal/trace"
	"capred/internal/workload"
)

// workloadDef names a workload's experiments (none for serve-stream).
type workloadDef struct {
	name string
	exps []string
}

var workloadDefs = []workloadDef{
	{"sweep-predict", []string{"fig5", "fig11", "tournament"}},
	{"sweep-timing", []string{"fig12"}},
	{"serve-stream", nil},
}

func lookup(name string) (workloadDef, bool) {
	for _, w := range workloadDefs {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// setupReps is how many times a run sets up; setup_s is the median.
const setupReps = 5

// minPasses is the fewest timed passes a run takes, however long they
// are: enough for a per-segment median.
const minPasses = 5

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run())
}

func run() int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "sweep-predict, sweep-timing or serve-stream")
	seed := fs.Int64("seed", 0, "workload seed, folded into every trace's generator seed")
	seconds := fs.Int("seconds", 30, "how long the timed passes run")
	traced := fs.Int("trace", 0, "1 runs the traced per-layer pass over every workload")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	w, ok := lookup(*name)
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need -workload sweep-predict|sweep-timing|serve-stream, -seconds >= 1, -trace 0|1")
		return 2
	}
	b := &bench{
		seed:   *seed,
		budget: time.Duration(*seconds) * time.Second,
		host:   readHostInfo(),
		ticks:  readHostTicks(),
		diag:   make(map[string]any),
	}
	var res result
	var err error
	if *traced == 1 {
		res, err = b.tracedRun(w)
	} else {
		res, err = b.untracedRun(w)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	b.diag["host"] = b.host
	b.diag["host_usage"] = usageBetween(b.ticks, readHostTicks())
	b.diag["error_pct"] = 100 * float64(res.Failed) / float64(max(res.Attempted, 1))
	b.diag["workload"], b.diag["seed"], b.diag["trace"] = w.name, b.seed, *traced
	diag, err := json.Marshal(map[string]any{"diagnostics": b.diag})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: diagnostics:", err)
		return 2
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: result:", err)
		return 2
	}
	fmt.Println(string(diag))
	fmt.Println(string(out))
	if !res.Correct {
		return 1
	}
	return 0
}

// bench holds one run's settings and its diagnostics.
type bench struct {
	seed   int64
	budget time.Duration
	host   hostInfo
	ticks  hostTicks
	diag   map[string]any
}

// passStat is one timed pass.
type passStat struct {
	wall, cpu time.Duration
	events    int64
	alloc     uint64
	gcs       uint32
	// segWall and segCPU split an untraced sweep pass into segments
	// that are the same work on every pass; nil on serve-stream.
	segWall, segCPU []time.Duration
}

func (p passStat) mevs() float64 { return float64(p.events) / p.wall.Seconds() / 1e6 }

func (p passStat) cpuNs() float64 { return float64(p.cpu.Nanoseconds()) / float64(p.events) }

// warmUpRun labels the pass that fixes a workload's reference outputs;
// its timings are not kept.
const warmUpRun = "warm-up"

// timePass runs one pass and measures its wall and CPU time, allocation
// and GC cycles.
func timePass(st *workloadState, tr *tracer, run string) passStat {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0 := cpuTime()
	t0 := time.Now()
	ev := st.pass(tr, run)
	wall := time.Since(t0)
	c1 := cpuTime()
	runtime.ReadMemStats(&m1)
	p := passStat{wall: wall, cpu: c1 - c0, events: ev,
		alloc: m1.TotalAlloc - m0.TotalAlloc, gcs: m1.NumGC - m0.NumGC}
	if st.sweep != nil {
		p.segWall, p.segCPU = st.sweep.segs.wall, st.sweep.segs.cpu
	}
	return p
}

// steadyPass is a sweep's steady-state pass: each cell's median wall
// and CPU seconds over the timed passes, summed. The host's speed swings
// by a third for stretches of a fraction of a second to tens of seconds;
// a cell keeps its typical time however those swings fall across
// passes, where a whole pass keeps every swing it overlapped.
func steadyPass(ps []passStat) (wall, cpu float64, err error) {
	n := len(ps[0].segWall)
	for _, p := range ps {
		if len(p.segWall) != n || len(p.segCPU) != n {
			return 0, 0, fmt.Errorf("passes differ in their cells: %d and %d", n, len(p.segWall))
		}
	}
	w, c := make([]float64, len(ps)), make([]float64, len(ps))
	for i := 0; i < n; i++ {
		for k, p := range ps {
			w[k], c[k] = p.segWall[i].Seconds(), p.segCPU[i].Seconds()
		}
		wall += median(w)
		cpu += median(c)
	}
	return wall, cpu, nil
}

// summary reduces timed passes to the end-to-end figures.
type summary struct {
	mevs, cpuNs []float64
	events      int64
	alloc       uint64
	gcs         uint32
}

func summarise(ps []passStat) summary {
	var s summary
	for _, p := range ps {
		s.mevs = append(s.mevs, p.mevs())
		s.cpuNs = append(s.cpuNs, p.cpuNs())
		s.events += p.events
		s.alloc += p.alloc
		s.gcs += p.gcs
	}
	return s
}

func (s summary) quartilesDiag() map[string]any {
	return map[string]any{
		"passes":                len(s.mevs),
		"throughput_mev_s":      s.mevs,
		"throughput_mev_s_q":    quartiles(s.mevs),
		"cpu_ns_per_event_q":    quartiles(s.cpuNs),
		"alloc_bytes_per_event": float64(s.alloc) / float64(max(s.events, 1)),
		"gc_cycles":             s.gcs,
	}
}

// workloadState is a set-up workload ready for timed passes: a sweep
// or serve-stream, never both.
type workloadState struct {
	sweep *sweep
	serve *serveStream
}

// build sets a workload up over the seeded roster. cache is the sweeps'
// replay cache; build materialises one when it is nil.
func (b *bench) build(w workloadDef, specs []workload.TraceSpec, cache *trace.ReplayCache) (*workloadState, error) {
	if w.exps == nil {
		s, err := newServe(specs, b.seed)
		return &workloadState{serve: s}, err
	}
	if cache == nil {
		cache = materialise(specs, rosterEvents)
	}
	return &workloadState{sweep: newSweep(w.name, w.exps, cache)}, nil
}

// pass runs the workload once and returns the trace events it drove
// (acknowledged, for serve-stream). With tr non-nil it records spans
// under the run id.
func (st *workloadState) pass(tr *tracer, run string) int64 {
	if st.sweep != nil {
		return st.sweep.pass(tr, run)
	}
	return st.serve.pass(tr, run)
}

func (st *workloadState) tally() counts {
	if st.sweep != nil {
		return st.sweep.counts
	}
	return st.serve.counts
}

func (st *workloadState) stop() {
	if st.serve != nil {
		st.serve.stop()
	}
}

// setup builds a workload's inputs reps times and returns the last
// build, the median set-up time and every set-up time.
func (b *bench) setup(w workloadDef, reps int) (*workloadState, float64, []float64, error) {
	specs := seededSpecs(b.seed)
	var secs []float64
	var st *workloadState
	for i := 0; i < reps; i++ {
		if st != nil {
			st.stop()
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		if st, err = b.build(w, specs, nil); err != nil {
			return nil, 0, nil, err
		}
		secs = append(secs, time.Since(t0).Seconds())
	}
	return st, median(secs), secs, nil
}

// prepare runs the offline oracle and the warm-up pass, which fixes the
// reference outputs every timed pass must reproduce.
func (st *workloadState) prepare() error {
	if st.serve != nil {
		if err := st.serve.oracle(); err != nil {
			return err
		}
	}
	st.pass(nil, warmUpRun)
	return nil
}

func (b *bench) untracedRun(w workloadDef) (result, error) {
	var gate counts
	if err := goldenGate(w.exps, &gate); err != nil {
		return result{}, err
	}
	st, setupS, setupAll, err := b.setup(w, setupReps)
	if err != nil {
		return result{}, err
	}
	defer st.stop()
	if err := st.prepare(); err != nil {
		return result{}, err
	}
	k := newRefKernel()
	refs := []refSample{k.probe()}
	probed := time.Now()
	var ps []passStat
	start := time.Now()
	for len(ps) < minPasses || time.Since(start) < b.budget {
		ps = append(ps, timePass(st, nil, "timed"))
		if time.Since(probed) >= refEvery {
			refs = append(refs, k.probe())
			probed = time.Now()
		}
	}
	sum := summarise(ps)
	// serve-stream's sessions overlap on two clients, so its passes are
	// not split; they are short, and the run takes their median.
	mevs, cpuNs := median(sum.mevs), median(sum.cpuNs)
	if st.sweep != nil {
		wall, cpu, err := steadyPass(ps)
		if err != nil {
			return result{}, err
		}
		// Every correct sweep pass drives the same events.
		ev := float64(ps[0].events)
		mevs, cpuNs = ev/wall/1e6, cpu*1e9/ev
		b.diag["steady_pass"] = map[string]any{"cells": len(ps[0].segWall), "wall_s": wall, "cpu_s": cpu}
		st.sweep.checkCache()
	}
	tal := st.tally()
	tal.attempted += gate.attempted
	tal.failed += gate.failed

	refPerSec, refCPUNs := refRates(refs)
	b.diag["throughput_mev_s"] = mevs
	b.diag["cpu_ns_per_event"] = cpuNs
	b.diag["ref_kernel"] = map[string]any{"probes": len(refs), "mev_s": refPerSec / 1e6, "cpu_ns_per_event": refCPUNs}
	b.diag["setup_s_reps"] = setupAll
	b.diag["passes"] = sum.quartilesDiag()
	b.diag["golden_cells"] = gate.attempted
	if st.sweep != nil {
		b.diag["replay_cache"] = st.sweep.cache.Stats()
		name, _ := guardMetric(w.name)
		b.diag[name] = st.sweep.guard
	}
	if st.serve != nil {
		s := st.serve
		t := tailOf(s.postMs)
		b.diag["batch_p50_ms"] = median(s.postMs)
		b.diag["batch_tail_ms"] = t
		b.diag["sim_spec_correct_pct"] = 100 * float64(s.served[0]) / float64(max(s.served[1], 1))
	}
	return result{
		Correct:   tal.failed == 0,
		Attempted: tal.attempted,
		Failed:    tal.failed,
		Metrics: map[string]metric{
			"setup_s":           {setupS, "s"},
			"rel_throughput":    {mevs * 1e6 / refPerSec, "x"},
			"rel_cpu_per_event": {cpuNs / refCPUNs, "x"},
			"peak_rss_mib":      {peakRSSMiB(), "MiB"},
		},
	}, nil
}

// guardMetric names a sweep's simulated guard and its unit.
func guardMetric(workload string) (name, unit string) {
	if workload == "sweep-timing" {
		return "sim_speedup_gap8", "x"
	}
	return "sim_spec_correct_pct", "%"
}

// dominant names the layers each workload is predicted to spend most of
// its time in. memsys and pipeline run inside cpu.Run, and
// StreamDecoder.FeedBlocks inside capserve's handler, so from outside
// they are charged to cpu and server.
var dominant = map[string][]string{
	"sweep-predict": {"predictor", "sim"},
	"sweep-timing":  {"cpu"},
	"serve-stream":  {"server"},
}

// shareLayers are the layers whose share of each workload's wall clock
// is reported.
var shareLayers = map[string][]string{
	"sweep-predict": {"predictor", "sim", "trace"},
	"sweep-timing":  {"cpu", "predictor", "trace"},
	"serve-stream":  {"server", "transport"},
}

// tracedRun is the per-layer pass: it sets every workload up once, runs
// the golden gate and the layer probes, then alternates untraced and
// traced passes of each workload for a third of the budget.
func (b *bench) tracedRun(first workloadDef) (result, error) {
	tr := newTracer()
	out := make(map[string]metric)
	var tal counts
	if err := goldenGate([]string{"fig5", "fig11", "tournament", "fig12"}, &tal); err != nil {
		return result{}, err
	}

	// The sweeps share one seeded cache: they open the same keys.
	specs := seededSpecs(b.seed)
	cache := materialise(specs, rosterEvents)
	pr := &prober{tr: tr, specs: specs, cache: cache, out: out}
	pr.run()

	order := []workloadDef{first}
	for _, w := range workloadDefs {
		if w.name != first.name {
			order = append(order, w)
		}
	}
	var cellMs, handlerMs, transportMs []float64
	var allAlloc uint64
	var allEvents int64
	var allGC uint32
	for _, w := range order {
		st, err := b.build(w, specs, cache)
		if err != nil {
			return result{}, err
		}
		defer st.stop()
		if err := st.prepare(); err != nil {
			return result{}, err
		}
		var plain, traced []passStat
		start := time.Now()
		for len(traced) == 0 || time.Since(start) < b.budget/time.Duration(len(workloadDefs)) {
			plain = append(plain, timePass(st, nil, "untraced"))
			traced = append(traced, timePass(st, tr, fmt.Sprintf("%s-%d", w.name, len(traced))))
		}
		up, tp := summarise(plain), summarise(traced)
		if st.sweep != nil {
			st.sweep.checkCache()
		}
		allAlloc += up.alloc
		allEvents += up.events
		allGC += up.gcs

		t := st.tally()
		tal.attempted += t.attempted
		tal.failed += t.failed

		var spans []span
		for _, s := range tr.snapshot() {
			if strings.HasPrefix(s.Run, w.name+"-") {
				spans = append(spans, s)
			}
		}
		// The clients' busy wall clock: pass wall times the closed-loop
		// clients, one for a sweep.
		var busy float64
		for _, p := range traced {
			busy += float64(p.wall)
		}
		if st.serve != nil {
			busy *= serveClients
		}
		prefix := w.name + "."
		out[prefix+"tracing_overhead_mev_s"] = metric{median(tp.mevs) - median(up.mevs), "Mev/s"}
		out[prefix+"alloc_bytes_per_event"] = metric{float64(up.alloc) / float64(up.events), "B"}
		out[prefix+"gc_cycles"] = metric{float64(up.gcs), "count"}
		diag := b.attribute(w.name, spans, busy, out)
		diag["untraced"], diag["traced"] = up.quartilesDiag(), tp.quartilesDiag()
		b.diag[w.name] = diag

		for _, s := range spans {
			if strings.Contains(s.Name, " cell ") {
				cellMs = append(cellMs, float64(s.dur())/1e6)
			}
		}
		if st.sweep != nil {
			for exp, xs := range st.sweep.expSecs {
				out["sim."+exp+"_s"] = metric{median(xs), "s"}
			}
			name, unit := guardMetric(w.name)
			out[prefix+name] = metric{st.sweep.guard, unit}
		}
		if s := st.serve; s != nil {
			handlerMs = s.handler
			transportMs = transport(spans)
			out["server.ingest_ns_per_event"] = metric{ingestNs(spans, tp.events), "ns"}
			out[prefix+"batch_p50_ms"] = metric{median(s.postMs), "ms"}
			out[prefix+"batch_tail_ms"] = metric{tailOf(s.postMs).Value, "ms"}
			out[prefix+"sim_spec_correct_pct"] = metric{100 * float64(s.served[0]) / float64(max(s.served[1], 1)), "%"}
		}
	}
	out["sim.cell_p50_ms"] = metric{median(cellMs), "ms"}
	out["sim.cell_tail_ms"] = metric{tailOf(cellMs).Value, "ms"}
	out["server.handler_p50_ms"] = metric{median(handlerMs), "ms"}
	out["server.handler_tail_ms"] = metric{tailOf(handlerMs).Value, "ms"}
	out["server.transport_p50_ms"] = metric{median(transportMs), "ms"}
	out["runtime.alloc_bytes_per_event"] = metric{float64(allAlloc) / float64(allEvents), "B"}
	out["runtime.gc_cycles"] = metric{float64(allGC), "count"}
	u := usageBetween(b.ticks, readHostTicks())
	out["host.steal_pct"] = metric{u.StealPct, "%"}
	out["host.cpu_util_pct"] = metric{u.UtilPct, "%"}
	b.diag["cell_tail_ms"] = tailOf(cellMs)
	b.diag["handler_tail_ms"] = tailOf(handlerMs)

	path := filepath.Join(".bench_build", "perfbench", fmt.Sprintf("spans-seed%d.jsonl", b.seed))
	if err := tr.write(path); err != nil {
		return result{}, fmt.Errorf("writing spans: %w", err)
	}
	b.diag["spans"] = path
	return result{Correct: tal.failed == 0, Attempted: tal.attempted, Failed: tal.failed, Metrics: out}, nil
}

// attribute charges each layer its self time over a workload's traced
// spans, as a share of the busy wall clock, and tests the predicted
// dominant layers against the measured shares. The self time of noLayer
// spans, and any busy time no span covers, is unattributed and competes
// with the layers for the top place. It returns the workload's
// diagnostics.
func (b *bench) attribute(workload string, spans []span, busy float64, out map[string]metric) map[string]any {
	self := layerTimes(spans)
	shares := make(map[string]float64)
	unattributed := 100.0
	for l, ns := range self {
		if l != noLayer {
			shares[l] = 100 * float64(ns) / busy
			unattributed -= shares[l]
		}
	}
	shares["unattributed"] = unattributed
	prefix := workload + "."
	out[prefix+"unattributed_pct"] = metric{unattributed, "%"}
	for _, l := range shareLayers[workload] {
		out[prefix+l+"_share_pct"] = metric{shares[l], "%"}
	}
	var dom, bestIn, bestOut float64
	top := ""
	for l, v := range shares {
		if contains(dominant[workload], l) {
			dom += v
			bestIn = max(bestIn, v)
		} else {
			bestOut = max(bestOut, v)
		}
		if top == "" || v > shares[top] {
			top = l
		}
	}
	out[prefix+"dominant_share_pct"] = metric{dom, "%"}
	// Positive exactly when the top layer is a predicted one.
	out[prefix+"dominant_margin_pct"] = metric{bestIn - bestOut, "%"}
	return map[string]any{
		"layer_self_s":     secondsOf(self),
		"layer_share_pct":  shares,
		"top_layer":        top,
		"dominant_layers":  dominant[workload],
		"dominant_matches": bestIn > bestOut,
	}
}

// transport is, per event POST, the client's time minus the handler's:
// the HTTP client, loopback and reply decoding.
func transport(spans []span) []float64 {
	server := make(map[int64]int64)
	for _, s := range spans {
		if s.Layer == "server" {
			server[s.Parent] += s.dur()
		}
	}
	var out []float64
	for _, s := range spans {
		if s.Name == "POST events" {
			out = append(out, float64(s.dur()-server[s.ID])/1e6)
		}
	}
	return out
}

// ingestNs is the handler time of event POSTs per event acknowledged.
func ingestNs(spans []span, events int64) float64 {
	var ns int64
	for _, s := range spans {
		if s.Name == "ServeHTTP POST events" {
			ns += s.dur()
		}
	}
	return float64(ns) / float64(max(events, 1))
}

func secondsOf(self map[string]int64) map[string]float64 {
	out := make(map[string]float64, len(self))
	for l, ns := range self {
		out[l] = float64(ns) / 1e9
	}
	return out
}

func contains(xs []string, x string) bool {
	for _, y := range xs {
		if y == x {
			return true
		}
	}
	return false
}
