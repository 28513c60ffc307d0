// Command capsim runs the paper's experiments and prints their tables.
//
// Usage:
//
//	capsim -experiment fig5 [-events N] [-workers N]
//	capsim -experiment fig5,fig7,baselines
//	capsim -experiment all
//	capsim -experiment fig12 -cpuprofile cpu.pprof
//	capsim -list
//
// By default each trace stream is materialised once into a compact
// in-memory encoding and replayed across every experiment pass.
// -cache-budget caps the cache in MiB, and 0 disables it (live
// regeneration), as for capserve; -cache-stats reports its hit counts
// on exit. Cached replay is bit-identical to regeneration, so results
// do not depend on the flag.
//
// -cpuprofile FILE writes a runtime/pprof CPU profile covering every
// selected experiment, for `go tool pprof`.
//
// Experiments: fig5 fig6 fig7 fig8 fig9 fig10 fig11 fig12 update-policy
// lt-size baselines control ablations profile-assist addr-vs-value
// prefetch classes wrong-path.
//
// Trace failures (decode errors, predictor panics, cancellation) do not
// abort a sweep: the affected trace is dropped from the aggregates, the
// table is printed from the survivors with a failure footer, and capsim
// exits non-zero. SIGINT/SIGTERM cancel the in-flight traces; whatever
// completed is still printed.
//
// With -coordinator HOST:PORT capsim additionally serves the distributed
// fleet API on that address and dispatches each experiment's (trace ×
// configuration) shards to capserve -worker processes under expiring
// leases (see DESIGN.md §13). The printed tables are byte-identical to a
// local run at any fleet size, including zero: with no registered worker
// the coordinator degrades to in-process execution. The bound address is
// announced on stderr so stdout stays comparable to local output.
//
// Exit codes: 0 all experiments clean; 1 at least one trace run or
// experiment failed (including cancellation); 2 usage error.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"syscall"
	"time"

	"capred"
	"capred/internal/buildinfo"
	"capred/internal/dist"
)

// names lists the registered experiment names, sorted.
func names() []string {
	exps := capred.Experiments()
	out := make([]string, 0, len(exps))
	for _, e := range exps {
		out = append(out, e.Name)
	}
	return out
}

// parseInjections parses the -inject spec ("trace=mode,trace=mode") and
// installs the matching fault wrappers on the config. Modes: decode (the
// source fails mid-trace with a decode error), truncate (the source fails
// on the first event), panic (the predictor factory panics).
func parseInjections(cfg *capred.ExperimentConfig, spec string) error {
	srcMode := map[string]string{}
	panicTraces := map[string]bool{}
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, mode, ok := strings.Cut(part, "=")
		if !ok {
			return fmt.Errorf("bad -inject entry %q (want trace=mode)", part)
		}
		switch mode {
		case "decode", "truncate":
			srcMode[name] = mode
		case "panic":
			panicTraces[name] = true
		default:
			return fmt.Errorf("bad -inject mode %q (want decode, truncate or panic)", mode)
		}
	}
	if len(srcMode) > 0 {
		cfg.WrapSource = func(name string, src capred.Source) capred.Source {
			switch srcMode[name] {
			case "decode":
				return capred.NewFailAfter(src, 1000, fmt.Errorf("injected decode error: %w", capred.ErrInjected))
			case "truncate":
				return capred.NewErrSource(fmt.Errorf("injected truncation: %w", capred.ErrInjected))
			}
			return src
		}
	}
	if len(panicTraces) > 0 {
		cfg.WrapFactory = func(name string, f capred.Factory) capred.Factory {
			if !panicTraces[name] {
				return f
			}
			return func() capred.Predictor { panic("injected predictor panic for " + name) }
		}
	}
	return nil
}

// reportFailures prints an experiment's failure summary to stderr,
// including recovered panic stacks.
func reportFailures(stderr io.Writer, name string, fails []capred.TraceFailure) {
	fmt.Fprintf(stderr, "capsim: experiment %s: %d trace run(s) failed\n", name, len(fails))
	for _, f := range fails {
		fmt.Fprintf(stderr, "  %s\n", f.String())
		var pe *capred.PanicError
		if errors.As(f.Err, &pe) && len(pe.Stack) > 0 {
			fmt.Fprintf(stderr, "    stack:\n")
			for _, line := range strings.Split(strings.TrimRight(string(pe.Stack), "\n"), "\n") {
				fmt.Fprintf(stderr, "    %s\n", line)
			}
		}
	}
}

// run is the testable entry point: parses args, runs the selected
// experiments, and returns the process exit code.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("capsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exp      = fs.String("experiment", "", "comma-separated experiments to run (or 'all')")
		events   = fs.Int64("events", 400_000, "instructions per trace")
		workers  = fs.Int("workers", runtime.GOMAXPROCS(0), "worker goroutines sharding each experiment's (trace, config) grid; 1 = serial")
		retries  = fs.Int("retries", 0, "retries for transient trace-source failures")
		inject   = fs.String("inject", "", "fault injection: trace=mode[,trace=mode] (modes: decode, truncate, panic)")
		budget   = fs.Int64("cache-budget", 512, "replay cache budget in MiB: each trace is materialised once and replayed across experiments (0 = disabled)")
		cacheLog = fs.Bool("cache-stats", false, "print replay cache statistics to stderr on exit")
		cpuProf  = fs.String("cpuprofile", "", "write a CPU profile of the whole run to this file (go tool pprof format)")
		list     = fs.Bool("list", false, "list available experiments")
		version  = fs.Bool("version", false, "print version and exit")

		coordAddr = fs.String("coordinator", "", "serve the fleet API on this host:port and dispatch shards to capserve -worker processes")
		lease     = fs.Duration("lease", 10*time.Second, "shard lease: a worker silent this long forfeits the shard for re-claim")
		attempts  = fs.Int("max-attempts", 3, "lease grants per shard before it fails with an attributed error")
		localWk   = fs.Int("local-workers", runtime.GOMAXPROCS(0), "in-process runners when no remote worker is available (-1 disables degraded mode)")
		localWait = fs.Duration("local-delay", 3*time.Second, "grace period for the first worker to register before degrading to local execution")
		drainWait = fs.Duration("drain", 10*time.Second, "wait for workers to acknowledge drain on exit")
		fleetLog  = fs.Bool("fleet-log", false, "log fleet events (registrations, reclaims, duplicates) to stderr")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *version {
		fmt.Fprintln(stdout, buildinfo.String("capsim"))
		return 0
	}
	if *list {
		for _, e := range capred.Experiments() {
			fmt.Fprintf(stdout, "%-14s %s\n", e.Name, e.Desc)
		}
		return 0
	}

	cfg := capred.ExperimentConfig{
		EventsPerTrace: *events,
		Workers:        *workers,
		SourceRetries:  *retries,
		Ctx:            ctx,
	}
	if *budget != 0 {
		cfg.ReplayCache = capred.NewReplayCache(*budget << 20)
	}
	if err := parseInjections(&cfg, *inject); err != nil {
		fmt.Fprintf(stderr, "capsim: %v\n", err)
		return 2
	}

	var selected []string
	switch {
	case *exp == "all":
		selected = names()
	case *exp != "":
		for _, n := range strings.Split(*exp, ",") {
			n = strings.TrimSpace(n)
			if n == "" {
				continue
			}
			if _, ok := capred.ExperimentByName(n); !ok {
				fmt.Fprintf(stderr, "capsim: unknown experiment %q; use -list\n", n)
				return 2
			}
			selected = append(selected, n)
		}
		if len(selected) == 0 {
			fmt.Fprintln(stderr, "capsim: -experiment list is empty; use -list to enumerate")
			return 2
		}
	default:
		fmt.Fprintln(stderr, "capsim: -experiment required; use -list to enumerate")
		return 2
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintf(stderr, "capsim: -cpuprofile: %v\n", err)
			return 2
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			fmt.Fprintf(stderr, "capsim: -cpuprofile: %v\n", err)
			return 2
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fmt.Fprintf(stderr, "capsim: -cpuprofile: %v\n", err)
			}
		}()
	}

	// With -coordinator, experiments run through the fleet layer; the
	// address line goes to stderr so stdout stays byte-comparable to a
	// local run.
	var coord *dist.Coordinator
	if *coordAddr != "" {
		ln, err := net.Listen("tcp", *coordAddr)
		if err != nil {
			fmt.Fprintf(stderr, "capsim: coordinator listen: %v\n", err)
			return 2
		}
		ccfg := dist.CoordConfig{
			Lease:        *lease,
			MaxAttempts:  *attempts,
			LocalWorkers: *localWk,
			LocalDelay:   *localWait,
		}
		if *fleetLog {
			ccfg.Logf = func(format string, args ...any) {
				fmt.Fprintf(stderr, "capsim: "+format+"\n", args...)
			}
		}
		coord = dist.NewCoordinator(ccfg)
		hs := &http.Server{Handler: coord.Handler()}
		go func() { hs.Serve(ln) }()
		defer hs.Close()
		fmt.Fprintf(stderr, "capsim: coordinator listening on %s\n", ln.Addr())
	}

	// Run every selected experiment even when earlier ones fail; report
	// all failures at the end and exit non-zero if any occurred.
	failed := map[string]int{}
	for _, n := range selected {
		e, _ := capred.ExperimentByName(n)
		var r capred.ExperimentResult
		if coord != nil {
			r = coord.RunExperiment(e, cfg)
		} else {
			r = e.Run(cfg)
		}
		fmt.Fprintln(stdout, r.Table())
		fails := r.Failed()
		if len(fails) > 0 {
			failed[n] = len(fails)
			reportFailures(stderr, n, fails)
		}
		if err := ctx.Err(); err != nil {
			// Cancelled: the tables so far are printed; stop starting new
			// experiments.
			fmt.Fprintf(stderr, "capsim: interrupted (%v); printed partial results\n", err)
			break
		}
	}
	if coord != nil {
		// Wind the fleet down: workers see drain=true on their next claim
		// and exit cleanly; stragglers are abandoned after the window.
		coord.BeginDrain()
		if !coord.WaitDrained(ctx, *drainWait) {
			fmt.Fprintln(stderr, "capsim: drain window elapsed with workers still registered")
		}
		fmt.Fprintf(stderr, "capsim: %s\n", coord.Stats())
	}
	if *cacheLog && cfg.ReplayCache != nil {
		fmt.Fprintf(stderr, "capsim: %s\n", cfg.ReplayCache.Stats())
	}
	if len(failed) > 0 || ctx.Err() != nil {
		if len(failed) > 0 {
			keys := make([]string, 0, len(failed))
			for n := range failed {
				keys = append(keys, n)
			}
			sort.Strings(keys)
			fmt.Fprintf(stderr, "capsim: failures in: %s\n", strings.Join(keys, ", "))
		}
		return 1
	}
	return 0
}

func main() {
	// SIGINT/SIGTERM cancel in-flight traces; experiments then return
	// partial results which run prints before exiting non-zero.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}
