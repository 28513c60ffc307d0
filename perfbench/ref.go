package main

import (
	"runtime"
	"time"
)

// The reference kernel is a frozen miniature of the simulator's hot
// loop, written here so that no change to the program can change it: a
// stride predictor table and a two-way cache model over a streamed
// synthetic load trace. A run probes it between its timed passes and
// divides the program's speed by the kernel's. The host's speed drifts
// by a quarter or more over minutes on a shared machine; the kernel
// mostly drifts with it, so the ratio drifts much less.

// refTraceEvents is the length of the kernel's trace; a probe streams
// it refProbeRounds times, about 0.3 s. A run probes before its first
// timed pass and then after any pass that ends refEvery or more after
// the last probe: after every sweep pass, and after every third
// serve-stream pass.
const (
	refTraceEvents = 1 << 21
	refProbeRounds = 8
	refProbeEvents = refTraceEvents * refProbeRounds
	refEvery       = 2 * time.Second
)

type refEntry struct {
	last, stride uint32
	conf         uint8
}

type refKernel struct {
	trace []uint32 // pc, address pairs
	tab   []refEntry
	tags  []uint32 // two ways per set
	lru   []uint8  // way to keep per set
	sink  int
}

// newRefKernel builds the kernel's trace from a fixed seed: 256 load
// sites, each walking a stride of 4 to 16 bytes from a base it moves
// at random one time in eight.
func newRefKernel() *refKernel {
	k := &refKernel{
		trace: make([]uint32, 2*refTraceEvents),
		tab:   make([]refEntry, 4096),
		tags:  make([]uint32, 2*1024),
		lru:   make([]uint8, 1024),
	}
	var base [256]uint32
	for i := range base {
		base[i] = uint32(i) << 16
	}
	x := uint32(12345)
	for i := 0; i < refTraceEvents; i++ {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		pc := x & 255
		if x&7 == 0 {
			base[pc] = x & 0xffffff
		} else {
			base[pc] += 4 * (pc&3 + 1)
		}
		k.trace[2*i], k.trace[2*i+1] = 0x400000+4*pc, base[pc]
	}
	return k
}

// refSample is one probe's wall and CPU time for refProbeEvents.
type refSample struct {
	wall, cpu time.Duration
}

// probe collects the garbage the last pass left, so no GC cycle runs
// beside the kernel, then times one probe.
func (k *refKernel) probe() refSample {
	runtime.GC()
	c0 := cpuTime()
	t0 := time.Now()
	for r := 0; r < refProbeRounds; r++ {
		k.sink += k.run()
	}
	return refSample{wall: time.Since(t0), cpu: cpuTime() - c0}
}

// run streams the trace once through the predictor and the cache and
// returns the correct predictions plus the cache hits.
func (k *refKernel) run() int {
	var n int
	for i := 0; i < refTraceEvents; i++ {
		pc, a := k.trace[2*i], k.trace[2*i+1]
		e := &k.tab[(pc>>2)&4095]
		if e.conf >= 2 && e.last+e.stride == a {
			n++
		}
		if s := a - e.last; s == e.stride {
			e.conf = min(e.conf+1, 3)
		} else if e.conf > 0 {
			e.conf--
		} else {
			e.stride = s
		}
		e.last = a
		set, tag := (a>>6)&1023, a>>16
		switch {
		case k.tags[2*set] == tag:
			n++
			k.lru[set] = 0
		case k.tags[2*set+1] == tag:
			n++
			k.lru[set] = 1
		default:
			v := 1 - k.lru[set]
			k.tags[2*set+uint32(v)] = tag
			k.lru[set] = v
		}
	}
	return n
}

// refRates reduces a run's probes to the kernel's median events per
// wall second and median CPU nanoseconds per event.
func refRates(rs []refSample) (perSec, cpuNs float64) {
	w, c := make([]float64, len(rs)), make([]float64, len(rs))
	for i, r := range rs {
		w[i] = refProbeEvents / r.wall.Seconds()
		c[i] = float64(r.cpu.Nanoseconds()) / refProbeEvents
	}
	return median(w), median(c)
}
