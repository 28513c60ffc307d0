package main

import (
	"time"

	"capred/internal/cpu"
	"capred/internal/predictor"
	"capred/internal/predictor/tournament"
	"capred/internal/sim"
	"capred/internal/trace"
	"capred/internal/workload"
)

const (
	// probeEvents is the prefix of each seeded trace a layer probe runs
	// over; 45 of them make each probe a few hundred milliseconds.
	probeEvents = 20_000
	// probeReps repeats each probe; the median is reported.
	probeReps = 3
)

// prober times calls into each module's public functions on the seeded
// roster, one span per probe call.
type prober struct {
	tr    *tracer
	specs []workload.TraceSpec
	cache *trace.ReplayCache
	out   map[string]metric
}

// probe runs fn probeReps times inside spans charged to layer and
// records the median nanoseconds per unit of work as name.
func (p *prober) probe(name, layer string, units int64, fn func()) {
	xs := make([]float64, probeReps)
	for i := range xs {
		id, start := p.tr.id(), p.tr.now()
		t0 := time.Now()
		fn()
		xs[i] = float64(time.Since(t0)) / float64(units)
		p.tr.record(id, 0, "probes", name, layer, start)
	}
	p.out[name] = metric{median(xs), "ns"}
}

// cursors opens a replay cursor over each trace's first probeEvents.
func (p *prober) cursors() []trace.Source {
	srcs := openAll(p.cache, p.specs, rosterEvents)
	for i, s := range srcs {
		srcs[i] = trace.NewLimit(s, probeEvents)
	}
	return srcs
}

// loadRec is one dynamic load as a predictor sees it.
type loadRec struct {
	ref    predictor.LoadRef
	actual uint32
}

// loadStreams pre-extracts each trace's loads with the history
// registers a Session maintains, so predictor probes time only Predict
// and Resolve.
func (p *prober) loadStreams() [][]loadRec {
	var out [][]loadRec
	for _, src := range p.cursors() {
		var recs []loadRec
		sess := predictor.NewSession(nil)
		for {
			ev, ok := src.Next()
			if !ok {
				break
			}
			switch ev.Kind {
			case trace.KindBranch:
				sess.Branch(ev.Taken)
			case trace.KindCall:
				sess.Call(ev.IP)
			case trace.KindLoad:
				recs = append(recs, loadRec{sess.Ref(ev.IP, ev.Offset), ev.Addr})
			}
		}
		out = append(out, recs)
	}
	return out
}

func specHybrid() predictor.Predictor {
	c := predictor.DefaultHybridConfig()
	c.Speculative = true
	return predictor.NewHybrid(c)
}

// run executes every probe.
func (p *prober) run() {
	n := int64(len(p.specs)) * probeEvents

	p.probe("workload.gen_ns_per_event", "workload", n, func() {
		for _, s := range p.specs {
			drain(trace.NewLimit(s.Open(), probeEvents))
		}
	})

	var resident int64
	p.probe("trace.materialise_ns_per_event", "trace", n, func() {
		c := trace.NewReplayCache(0)
		for i, src := range p.cursors() {
			c.Open(cacheKey(p.specs[i].Name, probeEvents), func() trace.Source { return src })
		}
		resident = c.Stats().Bytes
	})
	p.out["trace.resident_bytes_per_event"] = metric{float64(resident) / float64(n), "B"}

	p.probe("trace.replay_ns_per_event", "trace", int64(len(p.specs))*rosterEvents, func() {
		for _, src := range openAll(p.cache, p.specs, rosterEvents) {
			drain(src)
		}
	})

	// Encoding and decoding work in capload's 2000-event batches, as
	// serve-stream's sessions send them.
	type encodedTrace struct {
		data  []byte
		marks []int
	}
	var encoded []encodedTrace
	p.probe("trace.encode_ns_per_event", "trace", n, func() {
		encoded = encoded[:0]
		for _, src := range p.cursors() {
			data, marks, _, err := encodeBatches(src, probeEvents)
			if err != nil {
				panic(err) // a resident stream never fails
			}
			encoded = append(encoded, encodedTrace{data, marks})
		}
	})
	p.probe("trace.feedblocks_ns_per_event", "trace", n, func() {
		for _, e := range encoded {
			d := trace.NewStreamDecoder()
			off := 0
			for _, end := range e.marks {
				if err := d.FeedBlocks(e.data[off:end], func(*trace.Block) {}); err != nil {
					panic(err) // the bytes were just encoded
				}
				off = end
			}
		}
	})

	loads := p.loadStreams()
	var nLoads int64
	for _, l := range loads {
		nLoads += int64(len(l))
	}
	for _, pr := range []struct {
		name  string
		build func() predictor.Predictor
	}{
		{"last", func() predictor.Predictor { return predictor.NewLast(predictor.DefaultLastConfig()) }},
		{"stride", func() predictor.Predictor { return predictor.NewStride(predictor.DefaultStrideConfig()) }},
		{"cap", func() predictor.Predictor { return predictor.NewCAP(predictor.DefaultCAPConfig()) }},
		{"hybrid", func() predictor.Predictor { return predictor.NewHybrid(predictor.DefaultHybridConfig()) }},
		{"tournament", func() predictor.Predictor {
			t, err := tournament.NewNamed(tournament.DefaultConfig(), false, tournament.DefaultComponents()...)
			if err != nil {
				panic(err) // the default components always build
			}
			return t
		}},
	} {
		p.probe("predictor."+pr.name+"_ns_per_load", "predictor", nLoads, func() {
			for _, recs := range loads {
				pred := pr.build()
				for _, l := range recs {
					pp := pred.Predict(l.ref)
					pred.Resolve(l.ref, pp, l.actual)
				}
			}
		})
	}

	// Each tournament entrant alone, without the chooser and its tables:
	// a lone component speculates when it is confident.
	for _, name := range []string{"markov", "delta2", "callpath"} {
		p.probe("predictor."+name+"_ns_per_load", "predictor", nLoads, func() {
			for _, recs := range loads {
				c, err := tournament.NewComponent(name, false)
				if err != nil {
					panic(err) // the names are fixed above
				}
				for _, l := range recs {
					cp := c.Predict(l.ref)
					c.Resolve(l.ref, cp, cp.Confident, l.actual)
				}
			}
		})
	}

	for _, sp := range []struct {
		name  string
		gap   int
		build func() predictor.Predictor
	}{
		{"sim.stepper_gap0_ns_per_event", 0, func() predictor.Predictor { return predictor.NewHybrid(predictor.DefaultHybridConfig()) }},
		{"sim.stepper_gap8_ns_per_event", 8, specHybrid},
	} {
		p.probe(sp.name, "sim", n, func() {
			for _, src := range p.cursors() {
				st := sim.NewStepper(sp.build(), sp.gap)
				eachBlock(src, st.StepBlock)
				st.Finish()
			}
		})
	}

	var instr, cycles, branches, mispreds int64
	var l1 float64
	p.probe("cpu.run_nopred_ns_per_event", "cpu", n, func() {
		instr, cycles, branches, mispreds, l1 = 0, 0, 0, 0, 0
		for _, src := range p.cursors() {
			r := cpu.Run(src, nil, 0, cpu.DefaultConfig())
			instr += r.Instructions
			cycles += r.Cycles
			branches += r.Branches
			mispreds += r.BranchMispreds
			l1 += r.L1HitRate
		}
	})
	p.out["cpu.ipc_nopred"] = metric{float64(instr) / float64(cycles), "IPC"}
	p.out["cpu.branch_mispred_pct"] = metric{100 * float64(mispreds) / float64(branches), "%"}
	p.out["memsys.l1_hit_pct"] = metric{100 * l1 / float64(len(p.specs)), "%"}
	p.probe("cpu.run_hybrid_gap8_ns_per_event", "cpu", n, func() {
		for _, src := range p.cursors() {
			cpu.Run(src, specHybrid(), 8, cpu.DefaultConfig())
		}
	})
}
