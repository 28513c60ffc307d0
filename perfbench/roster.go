package main

import (
	"bytes"
	"fmt"

	"capred/internal/trace"
	"capred/internal/workload"
)

// rosterEvents is every trace's length in every workload: long enough
// that one set-up takes a steady few tenths of a second and one sweep
// pass a few seconds.
const rosterEvents = 100_000

// seededSpecs returns the 45-trace roster with the workload seed folded
// into each trace's generator seed. Seed 0 gives the stock roster.
func seededSpecs(seed int64) []workload.TraceSpec {
	specs := workload.Traces()
	for i := range specs {
		specs[i].Seed ^= seed * 0x5851f42d4c957f2d
	}
	return specs
}

// cacheKey is the key the experiments open a trace under: its
// name at the per-trace event budget. Pre-materialising the seeded
// streams under these keys is how the experiments receive them.
func cacheKey(name string, n int64) string { return fmt.Sprintf("%s@%d", name, n) }

// materialise generates every seeded trace and stores it in a fresh
// replay cache under the experiments' keys. Open materialises the stream
// before it returns a cursor, so the cursor is dropped unread.
func materialise(specs []workload.TraceSpec, n int64) *trace.ReplayCache {
	cache := trace.NewReplayCache(0)
	for _, s := range specs {
		cache.Open(cacheKey(s.Name, n), func() trace.Source {
			return trace.NewLimit(s.Open(), n)
		})
	}
	return cache
}

// eachBlock feeds src to fn one block at a time, as the experiments'
// hot loops do, and returns the number of events.
func eachBlock(src trace.Source, fn func(*trace.Block)) int64 {
	bs := trace.AsBlocks(src)
	b := trace.GetBlock()
	defer trace.PutBlock(b)
	var n int64
	for {
		k, ok := bs.NextBlock(b, trace.BlockLen)
		if k > 0 {
			fn(b)
			n += int64(k)
		}
		if !ok {
			return n
		}
	}
}

// drain pulls every event out of src and returns the count.
func drain(src trace.Source) int64 { return eachBlock(src, func(*trace.Block) {}) }

// encodeBatches renders the next n events of src (fewer if it ends) as
// one v3 stream, flushing after every batchEvents events as capload's
// encoder does, so each batch's bytes end on an event boundary. It
// returns the bytes, the byte offset where each batch ends, and the
// events encoded.
func encodeBatches(src trace.Source, n int64) ([]byte, []int, int64, error) {
	var buf bytes.Buffer
	w := trace.NewWriter(&buf)
	var marks []int
	var count int64
	for count < n {
		ev, ok := src.Next()
		if !ok {
			break
		}
		if err := w.Emit(ev); err != nil {
			return nil, nil, 0, err
		}
		count++
		if count%batchEvents == 0 {
			if err := w.Flush(); err != nil {
				return nil, nil, 0, err
			}
			marks = append(marks, buf.Len())
		}
	}
	if err := src.Err(); err != nil {
		return nil, nil, 0, err
	}
	if count%batchEvents != 0 {
		if err := w.Flush(); err != nil {
			return nil, nil, 0, err
		}
		marks = append(marks, buf.Len())
	}
	return buf.Bytes(), marks, count, nil
}

// openAll opens a replay cursor over every roster trace; the traces must
// already be materialised.
func openAll(cache *trace.ReplayCache, specs []workload.TraceSpec, n int64) []trace.Source {
	out := make([]trace.Source, len(specs))
	for i, s := range specs {
		out[i] = cache.Open(cacheKey(s.Name, n), func() trace.Source {
			panic("perfbench: trace " + s.Name + " is not materialised")
		})
	}
	return out
}
