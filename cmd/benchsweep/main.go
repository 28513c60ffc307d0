// Command benchsweep measures what the replay cache buys a sweep and
// writes the result as JSON (BENCH_sweep.json by default, for the CI
// benchmark job and the numbers quoted in DESIGN.md).
//
// It reports two layers:
//
//   - drain: raw event-delivery throughput per trace — the live workload
//     generator, a cold cache open (materialise + first replay), and a
//     warm replay cursor — plus the cache's resident column cost in
//     bytes per event. The cursor must beat the generator or the cache
//     is pure memory overhead.
//
//   - predict: RunTrace throughput over warm replay cursors for the
//     hybrid and the 5-way tournament.
//
//   - timing: cpu.Run (the §4.1 timing model) throughput over the same
//     warm cursors, with no address prediction and with a speculative
//     hybrid at gap 8, best of three — the layer the Fig. 12 sweeps
//     spend their time in.
//
//   - sweep: wall-clock for a representative slice of the experiment
//     roster (baselines, Fig. 9, Fig. 12, prefetch — the generator-bound
//     and cpu-model-bound extremes) run streaming, then cached, then
//     cached with the grid scheduler at GOMAXPROCS workers, with the
//     cache's occupancy stats. The headline numbers are the speedups.
//
// Usage:
//
//	benchsweep [-events n] [-traces n] [-o file]
//	benchsweep -gate BENCH_sweep.json [-gate-drop 0.10]
//
// Every report is stamped with the host it ran on (Go version,
// GOMAXPROCS, CPU model). Gate mode reruns the drain, predict and
// timing benchmarks (not the sweep) and compares the gated figures
// against the committed baseline's: a drop beyond the tolerance exits
// nonzero, which is how CI makes the perf trajectory an enforced
// invariant rather than an uploaded artifact.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"capred"
)

type drainReport struct {
	Traces            int     `json:"traces"`
	EventsPerTrace    int64   `json:"events_per_trace"`
	GeneratorMEvS     float64 `json:"generator_mev_per_s"`
	ColdCacheMEvS     float64 `json:"cold_cache_mev_per_s"`
	WarmCursorMEvS    float64 `json:"warm_cursor_mev_per_s"`
	CursorVsGenerator float64 `json:"cursor_vs_generator"`
	// BytesPerEvent is the cache's resident column cost (26 B/event SoA
	// lanes), not the v3 encoding density — the cache stores decoded
	// columns, not bytes.
	BytesPerEvent float64 `json:"resident_bytes_per_event"`
}

type sweepReport struct {
	Experiments      []string `json:"experiments"`
	StreamingSeconds float64  `json:"streaming_seconds"`
	// CachedColdSeconds includes materialising all 45 streams; warm is a
	// second pass over the resident cache — what every experiment after
	// the first sees inside one capsim run.
	CachedColdSeconds float64 `json:"cached_cold_seconds"`
	CachedWarmSeconds float64 `json:"cached_warm_seconds"`
	SpeedupCold       float64 `json:"speedup_cold"`
	SpeedupWarm       float64 `json:"speedup_warm"`
	// The parallel row reruns the warm sweep with the scheduler sharding
	// each (trace, config) grid across GOMAXPROCS workers. Output is
	// bit-identical to serial (the golden suite enforces it); only the
	// wall clock moves, and only on multi-core hosts.
	Workers             int     `json:"workers"`
	ParallelWarmSeconds float64 `json:"parallel_warm_seconds"`
	SpeedupParallel     float64 `json:"speedup_parallel_vs_serial_warm"`
	CacheStreams        int     `json:"cache_streams"`
	CacheMiB            float64 `json:"cache_mib"`
	CacheHits           int64   `json:"cache_hits"`
}

// predictReport measures end-to-end prediction throughput (RunTrace
// over a warm replay cursor) for the hybrid and the 5-way tournament.
// The tournament figure is gated: its per-event cost is the price of
// the meta-predictor abstraction, and a regression here means the
// component fan-out or the chooser grew a hot-path cost.
type predictReport struct {
	Traces         int     `json:"traces"`
	EventsPerTrace int64   `json:"events_per_trace"`
	HybridMEvS     float64 `json:"hybrid_mev_per_s"`
	TournamentMEvS float64 `json:"tournament_mev_per_s"`
	// TournamentVsHybrid is the throughput ratio — the slowdown of
	// arbitrating five components instead of two hard-wired ones.
	TournamentVsHybrid float64 `json:"tournament_vs_hybrid"`
}

// timingReport measures the §4.1 timing model (cpu.Run) over warm
// replay cursors, best of three passes per configuration. Both figures
// are gated: cpu.Run is most of a Fig. 12 sweep's CPU time.
type timingReport struct {
	Traces         int     `json:"traces"`
	EventsPerTrace int64   `json:"events_per_trace"`
	NoPredMEvS     float64 `json:"nopred_mev_per_s"`
	HybridGap8MEvS float64 `json:"hybrid_gap8_mev_per_s"`
}

// hostReport stamps the machine a ledger was measured on; numbers from
// different hosts are not comparable.
type hostReport struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
}

type report struct {
	Host    hostReport    `json:"host"`
	Drain   drainReport   `json:"drain"`
	Predict predictReport `json:"predict"`
	Timing  timingReport  `json:"timing"`
	Sweep   sweepReport   `json:"sweep"`
}

func main() {
	fs := flag.NewFlagSet("benchsweep", flag.ExitOnError)
	events := fs.Int64("events", 400_000, "events per trace")
	nTraces := fs.Int("traces", 8, "traces to drain-benchmark (0 = full roster)")
	out := fs.String("o", "BENCH_sweep.json", "output file (- for stdout)")
	gate := fs.String("gate", "", "baseline BENCH_sweep.json to gate against: rerun the drain, predict and timing benchmarks and exit nonzero when a gated figure regresses past -gate-drop")
	gateDrop := fs.Float64("gate-drop", 0.10, "fractional regression of a gated figure tolerated by -gate")
	fs.Parse(os.Args[1:])

	if *gate != "" {
		os.Exit(gateBaseline(*gate, *gateDrop, *events, *nTraces))
	}

	rep := report{
		Host:    readHost(),
		Drain:   drainBench(*events, *nTraces),
		Predict: predictBench(*events, *nTraces),
		Timing:  timingBench(*events, *nTraces),
		Sweep:   sweepBench(*events),
	}

	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchsweep:", err)
		os.Exit(1)
	}
	enc = append(enc, '\n')
	if *out == "-" {
		os.Stdout.Write(enc)
		return
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchsweep:", err)
		os.Exit(1)
	}
	fmt.Printf("benchsweep: drain %.1f -> %.1f Mev/s (%.2fx), cpu.Run %.1f/%.1f Mev/s (none/hybrid gap 8), sweep %.1fs -> %.1fs warm (%.2fx), %.1fs at %d workers (%.2fx), wrote %s\n",
		rep.Drain.GeneratorMEvS, rep.Drain.WarmCursorMEvS, rep.Drain.CursorVsGenerator,
		rep.Timing.NoPredMEvS, rep.Timing.HybridGap8MEvS,
		rep.Sweep.StreamingSeconds, rep.Sweep.CachedWarmSeconds, rep.Sweep.SpeedupWarm,
		rep.Sweep.ParallelWarmSeconds, rep.Sweep.Workers, rep.Sweep.SpeedupParallel, *out)
}

// gateBaseline is the CI regression gate: it reruns the drain,
// prediction and timing benchmarks (best of three, to shave scheduler
// noise) and fails when a fresh figure lands more than drop below the
// committed baseline's. Four figures gate: the warm-cursor drain (the
// rate the sweeps actually run at, which the SoA pipeline exists to
// protect), the tournament prediction throughput (the meta-predictor's
// hot-path cost), and cpu.Run with and without address prediction (the
// timing model the speedup figures run through). The generator and
// cold figures move with workload-generation cost, which is not a
// regression of any of these.
func gateBaseline(baselinePath string, drop float64, events int64, nTraces int) int {
	raw, err := os.ReadFile(baselinePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchsweep: gate:", err)
		return 2
	}
	var base report
	if err := json.Unmarshal(raw, &base); err != nil {
		fmt.Fprintf(os.Stderr, "benchsweep: gate: %s: %v\n", baselinePath, err)
		return 2
	}
	if base.Drain.WarmCursorMEvS <= 0 {
		fmt.Fprintf(os.Stderr, "benchsweep: gate: %s has no warm_cursor_mev_per_s baseline\n", baselinePath)
		return 2
	}
	best := func(measure func() float64) float64 {
		var b float64
		for i := 0; i < 3; i++ {
			if r := measure(); r > b {
				b = r
			}
		}
		return b
	}
	var timing timingReport // measured once, for both timing figures
	timed := func() timingReport {
		if timing.Traces == 0 {
			timing = timingBench(events, nTraces)
		}
		return timing
	}
	// Baselines written before a benchmark existed have no figure for
	// it (zero); those figures are skipped.
	figures := []struct {
		name    string
		base    float64
		measure func() float64
	}{
		{"warm-cursor drain", base.Drain.WarmCursorMEvS, func() float64 {
			return best(func() float64 { return drainBench(events, nTraces).WarmCursorMEvS })
		}},
		{"tournament prediction", base.Predict.TournamentMEvS, func() float64 {
			return best(func() float64 { return predictBench(events, nTraces).TournamentMEvS })
		}},
		{"cpu.Run without prediction", base.Timing.NoPredMEvS, func() float64 { return timed().NoPredMEvS }},
		{"cpu.Run with hybrid at gap 8", base.Timing.HybridGap8MEvS, func() float64 { return timed().HybridGap8MEvS }},
	}
	for _, f := range figures {
		if f.base <= 0 {
			continue
		}
		got := f.measure()
		floor := f.base * (1 - drop)
		if got < floor {
			fmt.Fprintf(os.Stderr, "benchsweep: gate FAIL: %s %.1f Mev/s is below %.1f (baseline %.1f - %.0f%%)\n",
				f.name, got, floor, f.base, drop*100)
			return 1
		}
		fmt.Printf("benchsweep: gate ok: %s %.1f Mev/s vs baseline %.1f (floor %.1f)\n",
			f.name, got, f.base, floor)
	}
	return 0
}

// warmRoster returns the first nTraces traces of the roster (all when
// nTraces is 0), an opener replaying each from a replay cache that is
// already warm, and the total event count across them.
func warmRoster(events int64, nTraces int) ([]capred.TraceSpec, func(capred.TraceSpec) capred.Source, int64) {
	specs := capred.Traces()
	if nTraces > 0 && nTraces < len(specs) {
		specs = specs[:nTraces]
	}
	cache := capred.NewReplayCache(0)
	open := func(s capred.TraceSpec) capred.Source {
		return cache.Open(s.Name, func() capred.Source { return capred.Limit(s.Open(), events) })
	}
	var total int64
	for _, s := range specs {
		total += drain(open(s))
	}
	return specs, open, total
}

// predictBench measures RunTrace throughput over warm replay cursors:
// the hybrid (the paper's configuration) and the full 5-way tournament.
func predictBench(events int64, nTraces int) predictReport {
	specs, open, total := warmRoster(events, nTraces)

	var hybridDur, tourDur time.Duration
	for _, s := range specs {
		t0 := time.Now()
		_, err := capred.RunTrace(open(s), capred.NewHybrid(capred.DefaultHybridConfig()), 0)
		hybridDur += time.Since(t0)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchsweep: predict:", err)
			os.Exit(1)
		}

		t0 = time.Now()
		if _, err := capred.RunTrace(open(s), capred.NewFullTournament(false), 0); err != nil {
			fmt.Fprintln(os.Stderr, "benchsweep: predict:", err)
			os.Exit(1)
		}
		tourDur += time.Since(t0)
	}
	r := predictReport{
		Traces:         len(specs),
		EventsPerTrace: events,
		HybridMEvS:     float64(total) / hybridDur.Seconds() / 1e6,
		TournamentMEvS: float64(total) / tourDur.Seconds() / 1e6,
	}
	r.TournamentVsHybrid = r.TournamentMEvS / r.HybridMEvS
	return r
}

// timingBench measures cpu.Run throughput over warm replay cursors,
// with no address prediction and with a speculative hybrid verified 8
// loads late (the Fig. 12 gap). Each figure is the best of three full
// passes over the traces.
func timingBench(events int64, nTraces int) timingReport {
	specs, open, total := warmRoster(events, nTraces)
	pass := func(gap int) time.Duration {
		var d time.Duration
		for _, s := range specs {
			var p capred.Predictor
			if gap > 0 {
				hc := capred.DefaultHybridConfig()
				hc.Speculative = true
				p = capred.NewHybrid(hc)
			}
			src := open(s)
			t0 := time.Now()
			r := capred.RunMachine(src, p, gap, capred.DefaultMachineConfig())
			d += time.Since(t0)
			if r.Err != nil || r.Instructions != events {
				fmt.Fprintf(os.Stderr, "benchsweep: timing: %s: %d instructions, err %v\n", s.Name, r.Instructions, r.Err)
				os.Exit(1)
			}
		}
		return d
	}
	mevs := func(gap int) float64 {
		best := pass(gap)
		for i := 1; i < 3; i++ {
			if d := pass(gap); d < best {
				best = d
			}
		}
		return float64(total) / best.Seconds() / 1e6
	}
	return timingReport{
		Traces:         len(specs),
		EventsPerTrace: events,
		NoPredMEvS:     mevs(0),
		HybridGap8MEvS: mevs(8),
	}
}

// readHost stamps the report with the measuring host.
func readHost() hostReport {
	return hostReport{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
	}
}

// cpuModel returns the first "model name" in /proc/cpuinfo, or
// "unknown" where there is none (non-Linux hosts).
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// drain pulls every event out of src through the block interface,
// mirroring the hot loops in the sim drivers.
func drain(src capred.Source) int64 {
	bs := capred.AsBlocks(src)
	b := capred.GetBlock()
	defer capred.PutBlock(b)
	var n int64
	for {
		k, ok := bs.NextBlock(b, capred.BlockLen)
		n += int64(k)
		if !ok {
			return n
		}
	}
}

func drainBench(events int64, nTraces int) drainReport {
	specs := capred.Traces()
	if nTraces > 0 && nTraces < len(specs) {
		specs = specs[:nTraces]
	}
	open := func(s capred.TraceSpec) capred.Source {
		return capred.Limit(s.Open(), events)
	}

	var genDur, coldDur, warmDur time.Duration
	var total int64
	cache := capred.NewReplayCache(0)
	for _, s := range specs {
		spec := s
		t0 := time.Now()
		total += drain(open(spec))
		genDur += time.Since(t0)

		t0 = time.Now()
		drain(cache.Open(spec.Name, func() capred.Source { return open(spec) }))
		coldDur += time.Since(t0)

		t0 = time.Now()
		drain(cache.Open(spec.Name, func() capred.Source { return open(spec) }))
		warmDur += time.Since(t0)
	}
	st := cache.Stats()
	mevs := func(d time.Duration) float64 {
		return float64(total) / d.Seconds() / 1e6
	}
	r := drainReport{
		Traces:         len(specs),
		EventsPerTrace: events,
		GeneratorMEvS:  mevs(genDur),
		ColdCacheMEvS:  mevs(coldDur),
		WarmCursorMEvS: mevs(warmDur),
		BytesPerEvent:  float64(st.Bytes) / float64(total),
	}
	r.CursorVsGenerator = r.WarmCursorMEvS / r.GeneratorMEvS
	return r
}

func sweepBench(events int64) sweepReport {
	names := []string{"baselines", "fig9", "fig12", "prefetch"}
	run := func(cfg capred.ExperimentConfig) float64 {
		t0 := time.Now()
		capred.RunBaselines(cfg)
		capred.Fig9(cfg)
		capred.Fig12(cfg)
		capred.RunPrefetch(cfg)
		return time.Since(t0).Seconds()
	}

	streaming := run(capred.ExperimentConfig{EventsPerTrace: events})

	cached := capred.ExperimentConfig{
		EventsPerTrace: events,
		ReplayCache:    capred.NewReplayCache(0),
	}
	cold := run(cached)
	warm := run(cached)

	par := cached
	par.Workers = runtime.GOMAXPROCS(0)
	parallel := run(par)
	st := cached.ReplayCache.Stats()

	return sweepReport{
		Experiments:         names,
		StreamingSeconds:    streaming,
		CachedColdSeconds:   cold,
		CachedWarmSeconds:   warm,
		SpeedupCold:         streaming / cold,
		SpeedupWarm:         streaming / warm,
		Workers:             par.Workers,
		ParallelWarmSeconds: parallel,
		SpeedupParallel:     warm / parallel,
		CacheStreams:        st.Entries,
		CacheMiB:            float64(st.Bytes) / (1 << 20),
		CacheHits:           st.Hits,
	}
}
