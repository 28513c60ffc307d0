package trace

import (
	"sync"
	"sync/atomic"
	"testing"
)

// drainAll pulls a source dry per-event and fails the test on a stream
// error.
func drainAll(t *testing.T, src Source) []Event {
	t.Helper()
	var out []Event
	for {
		ev, ok := src.Next()
		if !ok {
			break
		}
		out = append(out, ev)
	}
	if err := src.Err(); err != nil {
		t.Fatalf("Err after drain: %v", err)
	}
	return out
}

// canonicalAll maps the stream through the codec's canonical form, the
// shape in which cached replays are expected to return events.
func canonicalAll(evs []Event) []Event {
	out := make([]Event, len(evs))
	for i, ev := range evs {
		out[i] = canonical(ev)
	}
	return out
}

func TestReplayCacheMaterialisesOnce(t *testing.T) {
	want := canonicalAll(testEvents(2000))
	var opens atomic.Int64
	gen := func() Source {
		opens.Add(1)
		return NewSliceSource(want)
	}
	c := NewReplayCache(0)
	for i := 0; i < 5; i++ {
		got := drainAll(t, c.Open("k", gen))
		eventsEqual(t, got, want)
	}
	if n := opens.Load(); n != 1 {
		t.Fatalf("generator opened %d times, want 1", n)
	}
	st := c.Stats()
	if st.Entries != 1 || st.Hits != 5 || st.Misses != 0 || st.Rejected != 0 {
		t.Fatalf("stats = %+v, want 1 entry, 5 hits", st)
	}
	if st.Bytes <= 0 {
		t.Fatalf("stats report %d resident bytes", st.Bytes)
	}
}

func TestReplayCacheConcurrentCursors(t *testing.T) {
	want := canonicalAll(testEvents(5000))
	c := NewReplayCache(0)
	gen := func() Source { return NewSliceSource(want) }
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			src := c.Open("k", gen)
			var n int
			for {
				ev, ok := src.Next()
				if !ok {
					break
				}
				if ev != want[n] {
					errs <- "cursor diverged from reference stream"
					return
				}
				n++
			}
			if src.Err() != nil || n != len(want) {
				errs <- "cursor ended early or with error"
			}
		}()
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}
}

func TestReplayCacheBudgetFallback(t *testing.T) {
	want := canonicalAll(testEvents(4000))
	var opens atomic.Int64
	gen := func() Source {
		opens.Add(1)
		return NewSliceSource(want)
	}
	// A 4000-event stream encodes to far more than 128 bytes, so the
	// cache must reject it and regenerate on every open.
	c := NewReplayCache(128)
	for i := 0; i < 3; i++ {
		got := drainAll(t, c.Open("k", gen))
		eventsEqual(t, got, want)
	}
	st := c.Stats()
	if st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("over-budget stream retained: %+v", st)
	}
	if st.Rejected != 1 {
		t.Fatalf("rejected = %d, want 1", st.Rejected)
	}
	if st.Misses != 3 {
		t.Fatalf("misses = %d, want 3", st.Misses)
	}
	// One open to materialise (abandoned) + one live fallback per Open.
	if n := opens.Load(); n != 4 {
		t.Fatalf("generator opened %d times, want 4", n)
	}
}

func TestReplayCacheFailingStreamNotCached(t *testing.T) {
	var opens atomic.Int64
	gen := func() Source {
		opens.Add(1)
		return NewFailAfter(NewSliceSource(testEvents(100)), 10, nil)
	}
	c := NewReplayCache(0)
	for i := 0; i < 2; i++ {
		src := c.Open("bad", gen)
		var n int
		for {
			if _, ok := src.Next(); !ok {
				break
			}
			n++
		}
		if n != 10 {
			t.Fatalf("open %d: got %d events, want 10", i, n)
		}
		if err := src.Err(); err != ErrInjected {
			t.Fatalf("open %d: Err = %v, want ErrInjected", i, err)
		}
	}
	if st := c.Stats(); st.Entries != 0 || st.Rejected != 1 {
		t.Fatalf("failing stream cached: %+v", c.Stats())
	}
}

func TestReplayCacheDistinctKeys(t *testing.T) {
	a := canonicalAll(testEvents(100))
	b := canonicalAll(testEvents(300))
	c := NewReplayCache(0)
	gotA := drainAll(t, c.Open("a", func() Source { return NewSliceSource(a) }))
	gotB := drainAll(t, c.Open("b", func() Source { return NewSliceSource(b) }))
	eventsEqual(t, gotA, a)
	eventsEqual(t, gotB, b)
	if st := c.Stats(); st.Entries != 2 {
		t.Fatalf("entries = %d, want 2", st.Entries)
	}
}

func TestReplayStatsString(t *testing.T) {
	c := NewReplayCache(64 << 20)
	drainAll(t, c.Open("k", func() Source { return NewSliceSource(canonicalAll(testEvents(50))) }))
	s := c.Stats().String()
	if s == "" {
		t.Fatal("empty stats string")
	}
}

// residentCols returns the column store the cache retained for key.
func residentCols(t *testing.T, c *ReplayCache, key string) *Block {
	t.Helper()
	c.mu.Lock()
	e := c.entries[key]
	c.mu.Unlock()
	if e == nil || e.cols == nil {
		t.Fatalf("key %q not resident", key)
	}
	return e.cols
}

func TestReplayCachePresizesLimit(t *testing.T) {
	want := canonicalAll(testEvents(8000))[:5000]
	// Unlimited, and a budget the bound fits exactly.
	for _, budget := range []int64{0, 5000 * colBytesPerEvent} {
		c := NewReplayCache(budget)
		gen := func() Source { return NewLimit(NewSliceSource(canonicalAll(testEvents(8000))), 5000) }
		eventsEqual(t, drainAll(t, c.Open("k", gen)), want)
		cols := residentCols(t, c, "k")
		for name, lc := range map[string][2]int{
			"KindTaken": {len(cols.KindTaken), cap(cols.KindTaken)},
			"IP":        {len(cols.IP), cap(cols.IP)},
			"Addr":      {len(cols.Addr), cap(cols.Addr)},
			"Val":       {len(cols.Val), cap(cols.Val)},
			"Offset":    {len(cols.Offset), cap(cols.Offset)},
			"Src1":      {len(cols.Src1), cap(cols.Src1)},
			"Src2":      {len(cols.Src2), cap(cols.Src2)},
			"Lat":       {len(cols.Lat), cap(cols.Lat)},
		} {
			if lc != [2]int{5000, 5000} {
				t.Errorf("budget %d: %s len/cap = %v, want 5000/5000", budget, name, lc)
			}
		}
		eventsEqual(t, drainAll(t, c.Open("k", gen)), want)
	}
}

func TestReplayCacheLimitOverBudgetRejected(t *testing.T) {
	want := canonicalAll(testEvents(4000))
	var opens atomic.Int64
	gen := func() Source {
		opens.Add(1)
		return NewLimit(NewSliceSource(want), 4000)
	}
	// One event short of the bound: presizing must not happen, and the
	// stream must still be rejected once it outgrows the budget.
	c := NewReplayCache(4000*colBytesPerEvent - 1)
	for i := 0; i < 2; i++ {
		eventsEqual(t, drainAll(t, c.Open("k", gen)), want)
	}
	if st := c.Stats(); st.Entries != 0 || st.Bytes != 0 || st.Rejected != 1 || st.Misses != 2 {
		t.Fatalf("over-budget limited stream: %+v", st)
	}
	if n := opens.Load(); n != 3 {
		t.Fatalf("generator opened %d times, want 3", n)
	}
}

func TestReplayCacheLimitShortStream(t *testing.T) {
	want := canonicalAll(testEvents(300))
	c := NewReplayCache(0)
	gen := func() Source { return NewLimit(NewSliceSource(want), 5000) }
	for i := 0; i < 3; i++ {
		eventsEqual(t, drainAll(t, c.Open("k", gen)), want)
	}
	// The spare capacity of the 5000-event bound is not kept resident:
	// the budget is charged for what the columns hold.
	cols := residentCols(t, c, "k")
	if n := cols.Len(); n != len(want) || cap(cols.IP) != n || cap(cols.KindTaken) != n {
		t.Fatalf("resident stream has %d events, IP cap %d, KindTaken cap %d; want %d, %d, %d",
			n, cap(cols.IP), cap(cols.KindTaken), len(want), len(want), len(want))
	}
	if st := c.Stats(); st.Entries != 1 || st.Hits != 3 || st.Bytes != int64(len(want))*colBytesPerEvent {
		t.Fatalf("short limited stream: %+v", st)
	}
}
