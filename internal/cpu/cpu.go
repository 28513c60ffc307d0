// Package cpu is a trace-driven out-of-order timing model with the
// headline parameters of the paper's performance simulator (§4.1): 8-wide
// fetch, a 128-entry instruction window, 10 functional units, 4 data-cache
// ports, a g-share branch predictor, the memsys two-level data-cache
// hierarchy, and optional load-address prediction with selective recovery.
//
// The model computes, for every instruction, the cycle at which it
// fetches, issues (dependences + structural resources), completes and
// retires. It is not cycle-accurate against any real machine — the paper's
// own caveat applies ("actual performance benefits are highly dependent on
// the implementation") — but it reproduces the terms that address
// prediction changes: load-to-use latency on dependence chains, finite
// window/width, and misprediction recovery.
package cpu

import (
	"context"
	"fmt"

	"capred/internal/memsys"
	"capred/internal/pipeline"
	"capred/internal/predictor"
	"capred/internal/prefetch"
	"capred/internal/trace"
)

// Config parameterises the machine.
type Config struct {
	FetchWidth int // instructions fetched per cycle
	Window     int // in-flight instruction limit (ROB size)
	FUs        int // functional units accepting one op per cycle each
	CachePorts int // data-cache ports per cycle
	FrontDepth int // front-end stages between fetch and dispatch

	BranchFlushPenalty int // extra cycles after a mispredicted branch resolves
	AddrMispredPenalty int // selective-recovery cost of a wrong speculative access
	// LoadPipeExtra is the scheduling + address-generation pipeline a
	// normal load pays before its cache access starts; a correct address
	// prediction moves the whole access into the front end (§1: "remaining
	// activities, including the cache access, can be processed
	// speculatively early in the pipeline").
	LoadPipeExtra int

	BranchTableBits int // g-share table size (2^bits counters)
	BranchHistBits  int

	Hierarchy memsys.HierarchyConfig

	// Prefetcher, when non-nil, observes every load and warms the cache
	// hierarchy with its proposals (prefetch traffic is modelled as free
	// background bandwidth; only its cache-state effect is simulated).
	Prefetcher prefetch.Prefetcher

	// Ctx, when non-nil, cancels the run at the next event boundary; the
	// partial Result then carries the context's error in Err.
	Ctx context.Context
}

// DefaultConfig mirrors §4.1.
func DefaultConfig() Config {
	return Config{
		FetchWidth:         8,
		Window:             128,
		FUs:                10,
		CachePorts:         4,
		FrontDepth:         8,
		BranchFlushPenalty: 9,
		AddrMispredPenalty: 4,
		LoadPipeExtra:      8,
		BranchTableBits:    14,
		BranchHistBits:     12,
		Hierarchy:          memsys.DefaultHierarchyConfig(),
	}
}

// Result reports the timing outcome of one run.
type Result struct {
	Instructions int64
	Cycles       int64

	// Err is non-nil when the trace source failed (truncation, decode
	// error) or the run was cancelled: the cycle counts then cover only
	// the prefix simulated before the failure.
	Err error

	Loads        int64
	SpecAccesses int64
	CorrectSpec  int64
	MispredSpec  int64

	Branches       int64
	BranchMispreds int64

	L1HitRate float64
}

// IPC returns retired instructions per cycle.
func (r Result) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Instructions) / float64(r.Cycles)
}

// ringI64 is a fixed-size ring of int64 indexed by a monotonically
// increasing sequence number; entries older than the capacity are
// overwritten, which is safe because consumers only look back a bounded
// distance (the window size or dependency horizon).
type ringI64 struct {
	buf  []int64
	mask int64
}

func newRing(capacity int) *ringI64 {
	n := 1
	for n < capacity {
		n <<= 1
	}
	return &ringI64{buf: make([]int64, n), mask: int64(n - 1)}
}

func (r *ringI64) get(i int64) int64 {
	if i < 0 {
		return 0
	}
	return r.buf[i&r.mask]
}

func (r *ringI64) set(i int64, v int64) { r.buf[i&r.mask] = v }

// resource tracks per-cycle usage of a structural resource with a ring of
// counters. Cells are zeroed the first time the simulation's cycle
// frontier passes them; the ring is sized well beyond the maximum
// look-back (window size + worst-case memory latency), so a reservation
// never reads a cell that has not been cleared for its cycle.
type resource struct {
	used    []int32
	limit   int32
	mask    int64
	maxSeen int64
}

func newResource(limit, span int) *resource {
	n := 1
	for n < span {
		n <<= 1
	}
	return &resource{used: make([]int32, n), limit: int32(limit), mask: int64(n - 1), maxSeen: -1}
}

// reserve finds the first cycle ≥ from with a free slot and claims it.
func (r *resource) reserve(from int64) int64 {
	c := from
	for {
		if c > r.maxSeen {
			for i := r.maxSeen + 1; i <= c; i++ {
				r.used[i&r.mask] = 0
			}
			r.maxSeen = c
		}
		if r.used[c&r.mask] < r.limit {
			r.used[c&r.mask]++
			return c
		}
		c++
	}
}

// tournament is the §4.1 "hybrid branch predictor": a g-share global
// component, a two-level local-history component, and a per-branch
// chooser. The local component matters here because the out-of-order mix
// interleaves many independent loops, which scrambles global history.
type tournament struct {
	gtab  []uint8
	hist  uint32
	gmask uint32
	hmask uint32

	lhist []uint16
	lpht  []uint8
	lmask uint32

	choose []uint8
}

func newTournament(tableBits, histBits int) *tournament {
	return &tournament{
		gtab:   make([]uint8, 1<<uint(tableBits)),
		gmask:  uint32(1)<<uint(tableBits) - 1,
		hmask:  uint32(1)<<uint(histBits) - 1,
		lhist:  make([]uint16, 2048),
		lpht:   make([]uint8, 4096),
		lmask:  4095,
		choose: make([]uint8, 4096),
	}
}

func (t *tournament) gIdx(ip uint32) uint32 { return (ip>>2 ^ t.hist&t.hmask) & t.gmask }

func (t *tournament) lIdx(ip uint32) (int, uint32) {
	li := int(ip >> 2 & 2047)
	return li, uint32(t.lhist[li]) & t.lmask
}

func (t *tournament) predict(ip uint32) bool {
	g := t.gtab[t.gIdx(ip)] >= 2
	_, lp := t.lIdx(ip)
	l := t.lpht[lp] >= 2
	if t.choose[ip>>2&4095] >= 2 {
		return g
	}
	return l
}

func (t *tournament) update(ip uint32, taken bool) {
	gi := t.gIdx(ip)
	li, lp := t.lIdx(ip)
	g := t.gtab[gi] >= 2
	l := t.lpht[lp] >= 2

	ch := &t.choose[ip>>2&4095]
	if g != l {
		if g == taken {
			if *ch < 3 {
				*ch++
			}
		} else if *ch > 0 {
			*ch--
		}
	}
	bump := func(e *uint8) {
		if taken {
			if *e < 3 {
				*e++
			}
		} else if *e > 0 {
			*e--
		}
	}
	bump(&t.gtab[gi])
	bump(&t.lpht[lp])
	t.lhist[li] = t.lhist[li]<<1 | uint16(b2u(taken))
	t.hist = t.hist<<1 | b2u(taken)
}

func b2u(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

// Run simulates the trace on the configured machine. pred may be nil (no
// address prediction — the paper's baseline) or any Predictor; gapDepth
// defers prediction verification by that many dynamic loads (§5). When
// gapDepth > 0 the predictor must be built in speculative mode.
func Run(src trace.Source, pred predictor.Predictor, gapDepth int, cfg Config) Result {
	var (
		res  Result
		hier = memsys.NewHierarchy(cfg.Hierarchy)
		bp   = newTournament(cfg.BranchTableBits, cfg.BranchHistBits)
		ghr  predictor.GHR
		path predictor.PathHist

		complete = newRing(1 << 12) // per-seq completion cycles
		retire   = newRing(cfg.Window * 2)

		seq        int64
		fetchCycle int64 // cycle currently being filled with fetches
		fetchUsed  int   // fetches already issued this cycle
		flushUntil int64 // front-end stall from a branch misprediction

		fus   = newResource(cfg.FUs, 1<<12)
		ports = newResource(cfg.CachePorts, 1<<12)

		gap *pipeline.Gap
	)
	if pred != nil {
		gap = pipeline.New(pred, gapDepth)
	}

	lastRetire := int64(0)

	// Events arrive in pooled SoA blocks — polling the context (and paying
	// the source's interface dispatch) once per block instead of once per
	// event keeps cancellation latency in the microseconds, and the block
	// stays on the warm replay cursor's zero-copy path end to end. The
	// loop reads the columns directly: each event reads its kind byte
	// once, and every other column read is gated on that kind, because a
	// column holds stale data wherever the kind does not carry the field
	// (the trace.Block column contract). Src1/Src2 feed the readiness
	// check, so they are read there for the kinds that carry them; each
	// case of the kind dispatch reads its own fields. Slicing every
	// column to the block length once lets the compiler drop the bounds
	// checks in the loop.
	bs := trace.AsBlocks(src)
	block := trace.GetBlock()
	defer trace.PutBlock(block)
	for {
		if cfg.Ctx != nil {
			if err := cfg.Ctx.Err(); err != nil {
				res.Err = err
				break
			}
		}
		n, ok := bs.NextBlock(block, trace.BlockLen)
		kt := block.KindTaken[:n]
		ips := block.IP[:len(kt)]
		addrs := block.Addr[:len(kt)]
		offs := block.Offset[:len(kt)]
		src1s := block.Src1[:len(kt)]
		src2s := block.Src2[:len(kt)]
		lats := block.Lat[:len(kt)]
		for bi, kb := range kt {
			kind := trace.Kind(kb &^ trace.KindTakenBit)

			// Fetch: width-limited, stalled by flushes and the finite window.
			f := fetchCycle
			if flushUntil > f {
				f, fetchUsed = flushUntil, 0
			}
			if wstart := retire.get(seq - int64(cfg.Window)); wstart > f {
				f, fetchUsed = wstart, 0
			}
			if fetchUsed >= cfg.FetchWidth {
				f, fetchUsed = f+1, 0
			}
			fetchCycle = f
			fetchUsed++

			dispatch := f + int64(cfg.FrontDepth)

			// Readiness: dispatch plus source operands. Producers further back
			// than the completion ring have long retired; their values are
			// ready by construction.
			var src1, src2 uint32
			switch kind {
			case trace.KindLoad, trace.KindStore, trace.KindALU:
				src1, src2 = src1s[bi], src2s[bi]
			case trace.KindBranch:
				src1 = src1s[bi]
			}
			ready := dispatch
			if d := int64(src1); d != 0 && d <= complete.mask {
				if c := complete.get(seq - d); c > ready {
					ready = c
				}
			}
			if d := int64(src2); d != 0 && d <= complete.mask {
				if c := complete.get(seq - d); c > ready {
					ready = c
				}
			}

			var done int64
			switch kind {
			case trace.KindALU:
				lat := int64(lats[bi])
				if lat == 0 {
					lat = 1 // as trace.Event.Latency: unset means one cycle
				}
				done = fus.reserve(ready) + lat

			case trace.KindStore:
				issue := fus.reserve(ready)
				issue = ports.reserve(issue)
				hier.Access(addrs[bi], true)
				done = issue + 1

			case trace.KindLoad:
				res.Loads++
				ip, addr := ips[bi], addrs[bi]
				if cfg.Prefetcher != nil {
					if pfAddr, ok := cfg.Prefetcher.Observe(ip, addr); ok {
						hier.Prefetch(pfAddr)
					}
				}
				var p predictor.Prediction
				if gap != nil {
					ref := predictor.LoadRef{
						IP: ip, Offset: offs[bi],
						GHR: ghr.Value(), Path: path.Value(),
					}
					p = gap.Process(ref, addr)
				}
				lat := int64(hier.Access(addr, false))
				switch {
				case p.Speculate && p.Addr == addr:
					// Correct speculative access: launched in the front end at
					// fetch, so the data returns at f+lat and dependents do not
					// wait for address generation. The port was used early.
					res.SpecAccesses++
					res.CorrectSpec++
					ports.reserve(f)
					avail := f + lat
					if avail < dispatch+1 {
						avail = dispatch + 1
					}
					// Verification still occupies a unit once sources arrive.
					fus.reserve(ready)
					done = avail
				case p.Speculate:
					// Wrong speculative access: normal access plus selective
					// re-execution of the dependents already scheduled.
					res.SpecAccesses++
					res.MispredSpec++
					ports.reserve(f)
					issue := fus.reserve(ready)
					issue = ports.reserve(issue)
					done = issue + int64(cfg.LoadPipeExtra) + lat + int64(cfg.AddrMispredPenalty)
				default:
					issue := fus.reserve(ready)
					issue = ports.reserve(issue)
					done = issue + int64(cfg.LoadPipeExtra) + lat
				}

			case trace.KindBranch:
				res.Branches++
				ip, taken := ips[bi], kb&trace.KindTakenBit != 0
				issue := fus.reserve(ready)
				done = issue + 1
				if bp.predict(ip) != taken {
					res.BranchMispreds++
					if fl := done + int64(cfg.BranchFlushPenalty); fl > flushUntil {
						flushUntil = fl
					}
				}
				bp.update(ip, taken)
				ghr.Update(taken)

			case trace.KindCall, trace.KindReturn:
				issue := fus.reserve(ready)
				done = issue + 1
				if kind == trace.KindCall {
					path.Push(ips[bi])
				}
			}

			complete.set(seq, done)
			ret := done
			if ret < lastRetire {
				ret = lastRetire
			}
			retire.set(seq, ret)
			lastRetire = ret

			seq++
		}
		if !ok {
			break
		}
	}
	if gap != nil {
		gap.Drain()
	}
	res.Instructions = seq
	res.Cycles = lastRetire
	res.L1HitRate = hier.L1.HitRate()
	// A decode error must not pass for clean EOF: the cycle counts of a
	// truncated run look plausible but measure a different program.
	if err := src.Err(); err != nil && res.Err == nil {
		res.Err = fmt.Errorf("trace source: %w", err)
	}
	return res
}
