package trace

import (
	"fmt"
	"sync"
)

// ReplayCache materialises event streams once, as struct-of-arrays
// column stores (one full-trace Block per key), and hands out
// independent replay cursors over the shared columns. The experiment
// harness replays every trace through dozens of predictor
// configurations; without the cache each replay re-runs the workload
// generator from scratch, which dominates sweep wall-clock. A warm
// cursor's NextBlock delivers zero-copy views into the resident
// columns, so warm replay is bounded by memory bandwidth, not decode:
// no varints, no per-event branches, no allocation.
//
// Columns cost 26 bytes/event resident (vs ~6.7 for the v3 varint
// encoding the trace files use) — the cache deliberately trades memory
// for hardware-speed replay; a full 45-trace × 400k-event roster is
// still under half a gigabyte. The budget caps that footprint.
//
// Concurrency: a key is materialised at most once (concurrent first
// opens of the same key serialise on the entry; distinct keys
// materialise in parallel), and cursors only read the shared immutable
// columns — Block.Resize and Block.Own reallocate before any consumer
// write can land in them — so any number of goroutines may replay the
// same trace concurrently.
//
// Budget: the cache retains at most budget bytes of resident columns. A
// stream that would overflow the budget is not retained — the open that
// discovered it and every later open of the same key fall back to the
// live generator, so results are identical with and without the cache,
// only slower.
type ReplayCache struct {
	budget int64 // bytes; <= 0 means unlimited

	mu       sync.Mutex
	used     int64
	resident int
	rejected int
	hits     int64
	misses   int64
	entries  map[string]*replayEntry
}

// replayEntry is one key's materialisation slot.
type replayEntry struct {
	mu   sync.Mutex
	done bool
	cols *Block // nil when not retained (over budget or source error)
}

// colBytesPerEvent is the resident cost of one event across a Block's
// columns: kind+lat bytes plus six 4-byte lanes.
const colBytesPerEvent = 26

// ReplayStats is a snapshot of the cache's occupancy.
type ReplayStats struct {
	Entries  int   // streams resident in memory
	Bytes    int64 // resident column bytes
	Budget   int64 // configured budget (0 = unlimited)
	Rejected int   // streams not retained (over budget or source error)
	Hits     int64 // opens served from a resident stream
	Misses   int64 // opens that fell back to the live source
}

// NewReplayCache returns a cache bounded to budgetBytes of resident
// columns; a non-positive budget means unlimited.
func NewReplayCache(budgetBytes int64) *ReplayCache {
	return &ReplayCache{budget: budgetBytes, entries: make(map[string]*replayEntry)}
}

// Open returns a Source replaying the stream identified by key. On the
// first open of a key the stream is drawn from gen(), encoded and (budget
// permitting) retained; later opens return fresh cursors over the shared
// encoding. When the stream cannot be retained — it would overflow the
// budget, or gen()'s stream ended on an error — Open falls back to a
// fresh gen() source so the caller sees exactly the live behaviour.
//
// gen must be deterministic for a fixed key: every call yields the same
// stream. The cache trusts the key; callers must fold anything that
// changes the stream (trace name, event budget) into it.
func (c *ReplayCache) Open(key string, gen func() Source) Source {
	c.mu.Lock()
	e := c.entries[key]
	if e == nil {
		e = &replayEntry{}
		c.entries[key] = e
	}
	c.mu.Unlock()

	e.mu.Lock()
	if !e.done {
		e.cols = c.materialise(gen)
		e.done = true
	}
	cols := e.cols
	e.mu.Unlock()

	c.mu.Lock()
	if cols == nil {
		c.misses++
	} else {
		c.hits++
	}
	c.mu.Unlock()

	if cols == nil {
		return gen()
	}
	return newColReader(cols)
}

// materialise drains one stream into a column store, honouring the byte
// budget. It returns nil when the stream is not retained. Events pass
// through the block scatter (SetEvent), so only the fields each kind
// carries land in the columns — cached replays return exactly the
// canonical form the v3 codec round-trips.
func (c *ReplayCache) materialise(gen func() Source) *Block {
	limit := c.remaining()
	s := gen()
	src := AsBlocks(s)
	b := GetBlock()
	defer PutBlock(b)
	cols := &Block{}
	// A Limit announces an upper bound on the stream's length: when the
	// bound fits the budget, allocate the columns once at that size
	// instead of growing them by append. A bound that does not fit keeps
	// append growth, so the budget check below still rejects before the
	// whole stream is buffered.
	presized := 0
	if l, ok := s.(*Limit); ok && l.n > 0 && (limit < 0 || l.n <= limit/colBytesPerEvent) {
		presized = int(l.n)
		cols = newColumns(presized)
	}
	for {
		n, ok := src.NextBlock(b, BlockLen)
		cols.appendColumns(b, n)
		if limit >= 0 && int64(cols.Len())*colBytesPerEvent > limit {
			// Over budget: abandon the columns; every open of this key
			// regenerates live instead.
			return c.reject()
		}
		if !ok {
			break
		}
	}
	if err := src.Err(); err != nil {
		// A failing stream is never cached: the error must surface
		// through the live path on every open.
		return c.reject()
	}
	if cols.Len() < presized {
		// The stream ended short of its bound: copy it into exact-size
		// columns, so the resident bytes are the bytes the budget is
		// charged below.
		exact := newColumns(cols.Len())
		exact.appendColumns(cols, cols.Len())
		cols = exact
	}
	size := int64(cols.Len()) * colBytesPerEvent
	c.mu.Lock()
	defer c.mu.Unlock()
	// Re-check at commit time: concurrent materialisations of distinct
	// keys may each have fit the budget alone but not together.
	if c.budget > 0 && c.used+size > c.budget {
		c.rejected++
		return nil
	}
	c.used += size
	c.resident++
	return cols
}

// newColumns returns an empty column store with capacity for n events.
func newColumns(n int) *Block {
	return &Block{
		KindTaken: make([]uint8, 0, n),
		IP:        make([]uint32, 0, n),
		Addr:      make([]uint32, 0, n),
		Val:       make([]uint32, 0, n),
		Offset:    make([]int32, 0, n),
		Src1:      make([]uint32, 0, n),
		Src2:      make([]uint32, 0, n),
		Lat:       make([]uint8, 0, n),
	}
}

// appendColumns appends the first n events of src's columns to b's.
func (b *Block) appendColumns(src *Block, n int) {
	b.KindTaken = append(b.KindTaken, src.KindTaken[:n]...)
	b.IP = append(b.IP, src.IP[:n]...)
	b.Addr = append(b.Addr, src.Addr[:n]...)
	b.Val = append(b.Val, src.Val[:n]...)
	b.Offset = append(b.Offset, src.Offset[:n]...)
	b.Src1 = append(b.Src1, src.Src1[:n]...)
	b.Src2 = append(b.Src2, src.Src2[:n]...)
	b.Lat = append(b.Lat, src.Lat[:n]...)
}

// remaining returns the unspent byte budget, or -1 for unlimited.
func (c *ReplayCache) remaining() int64 {
	if c.budget <= 0 {
		return -1
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	rem := c.budget - c.used
	if rem < 0 {
		rem = 0
	}
	return rem
}

// reject counts a stream that was not retained and returns the nil
// column slot, so call sites read as one-liners.
func (c *ReplayCache) reject() *Block {
	c.mu.Lock()
	c.rejected++
	c.mu.Unlock()
	return nil
}

// colReader is a replay cursor over a resident column store. NextBlock
// hands out zero-copy views (marked shared, see Block); Next gathers
// events through the kind-gated Block.Event so per-event consumers see
// the same canonical events.
type colReader struct {
	cols *Block
	pos  int
}

func newColReader(cols *Block) *colReader { return &colReader{cols: cols} }

// Next implements Source.
func (r *colReader) Next() (Event, bool) {
	if r.pos >= r.cols.Len() {
		return Event{}, false
	}
	ev := r.cols.Event(r.pos)
	r.pos++
	return ev, true
}

// Err implements Source: a resident store never fails.
func (r *colReader) Err() error { return nil }

// NextBlock implements BlockSource with a zero-copy view: b's columns
// are repointed at the resident store for the next n events. The view
// is read-only and valid until the next call (the Block contract).
func (r *colReader) NextBlock(b *Block, max int) (int, bool) {
	n := r.cols.Len() - r.pos
	if n > max {
		n = max
	}
	viewBlock(b, r.cols, r.pos, n)
	r.pos += n
	return n, r.pos < r.cols.Len()
}

// Stats returns a snapshot of the cache occupancy and hit counters.
func (c *ReplayCache) Stats() ReplayStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return ReplayStats{
		Entries:  c.resident,
		Bytes:    c.used,
		Budget:   c.budget,
		Rejected: c.rejected,
		Hits:     c.hits,
		Misses:   c.misses,
	}
}

// String renders the stats as one report line.
func (s ReplayStats) String() string {
	budget := "unlimited"
	if s.Budget > 0 {
		budget = fmt.Sprintf("%d MiB", s.Budget>>20)
	}
	return fmt.Sprintf("replay cache: %d streams, %.1f MiB resident (budget %s), %d hits, %d misses, %d rejected",
		s.Entries, float64(s.Bytes)/(1<<20), budget, s.Hits, s.Misses, s.Rejected)
}
