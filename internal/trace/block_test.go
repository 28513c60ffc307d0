package trace

// Block pipeline tests: SoA delivery must be indistinguishable from the
// per-event stream for every source and wrapper in the package, the
// zero-copy replay views must be tamper-proof against consumers that
// mutate their block, and the warm drain loop must not allocate.

import (
	"bytes"
	"errors"
	"testing"
)

// testEvents returns a deterministic mixed-kind stream of n events.
func testEvents(n int) []Event {
	evs := make([]Event, n)
	for i := range evs {
		switch i % 5 {
		case 0:
			evs[i] = Event{Kind: KindLoad, IP: uint32(i), Addr: uint32(i * 8), Val: uint32(i * 3), Offset: int32(i % 64), Src1: uint32(i % 7)}
		case 1:
			evs[i] = Event{Kind: KindStore, IP: uint32(i), Addr: uint32(i * 4), Offset: -int32(i % 32), Src2: uint32(i % 3)}
		case 2:
			evs[i] = Event{Kind: KindBranch, IP: uint32(i), Addr: uint32(i + 100), Taken: i%3 == 0, Src1: uint32(i % 5)}
		case 3:
			evs[i] = Event{Kind: KindALU, IP: uint32(i), Src1: 1, Src2: 2, Lat: uint8(1 + i%4)}
		default:
			evs[i] = Event{Kind: KindCall, IP: uint32(i), Addr: uint32(i * 16)}
		}
	}
	return evs
}

func eventsEqual(t *testing.T, got, want []Event) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d events, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("event %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
}

// appendBlock gathers every event of b onto dst.
func appendBlock(dst []Event, b *Block) []Event {
	for i := 0; i < b.Len(); i++ {
		dst = append(dst, b.Event(i))
	}
	return dst
}

// drainBlocks pulls every event out of src through NextBlock at the
// given block size, gathering into []Event for comparison, then checks
// Err.
func drainBlocks(t *testing.T, src Source, blockLen int) []Event {
	t.Helper()
	bs := AsBlocks(src)
	b := NewBlock(blockLen)
	var out []Event
	for {
		n, ok := bs.NextBlock(b, blockLen)
		out = appendBlock(out, b)
		if n != b.Len() {
			t.Fatalf("NextBlock returned %d but resized the block to %d", n, b.Len())
		}
		if !ok {
			break
		}
	}
	if err := src.Err(); err != nil {
		t.Fatalf("Err after drain: %v", err)
	}
	return out
}

// warmReplayCursor materialises evs into a cache and returns an opener
// for warm cursors over the resident columns.
func warmReplayCursor(t *testing.T, evs []Event) func() Source {
	t.Helper()
	c := NewReplayCache(0)
	gen := func() Source { return NewSliceSource(evs) }
	c.Open("k", gen) // materialise
	if st := c.Stats(); st.Entries != 1 {
		t.Fatalf("stream not resident: %+v", st)
	}
	return func() Source { return c.Open("k", gen) }
}

// TestBlockGatherScatterRoundTrip pins the column contract: SetEvent
// followed by Event returns exactly the canonical form — the fields the
// kind carries, everything else zero — even when the columns start out
// full of another event's data.
func TestBlockGatherScatterRoundTrip(t *testing.T) {
	evs := randomEvents(7, 500)
	b := NewBlock(len(evs))
	b.Resize(len(evs))
	// Pre-soil every column so a missing kind gate would leak stale data.
	for i := range b.KindTaken {
		b.SetEvent(i, Event{Kind: KindLoad, IP: ^uint32(0), Addr: ^uint32(0),
			Val: ^uint32(0), Offset: -1, Src1: ^uint32(0), Src2: ^uint32(0)})
	}
	for i, ev := range evs {
		b.SetEvent(i, ev)
		if got, want := b.Event(i), canonical(ev); got != want {
			t.Fatalf("event %d (%v): gather got %+v, want %+v", i, ev.Kind, got, want)
		}
	}
}

// TestReaderBlockDecodes drives the windowed file Reader's columnar
// decode over a stream several times the window size, at block sizes
// that force partial blocks at window boundaries, and requires the exact
// canonical event stream.
func TestReaderBlockDecodes(t *testing.T) {
	// ~6.7 bytes/event: 40k events ≈ 4 windows, so refill, compaction and
	// the window-boundary partial-block path all run many times.
	evs := randomEvents(42, 40_000)
	data := encodeEvents(t, evs)
	want := canonicalAll(evs)
	for _, bl := range []int{1, 333, BlockLen} {
		got := drainBlocks(t, NewReader(bytes.NewReader(data)), bl)
		eventsEqual(t, got, want)
	}
}

// TestReaderMixedBlockAndEventReads interleaves NextBlock with per-event
// Next on one Reader: the pending-block hand-off between the two entry
// points must not drop, duplicate or reorder events.
func TestReaderMixedBlockAndEventReads(t *testing.T) {
	evs := randomEvents(3, 10_000)
	data := encodeEvents(t, evs)
	want := canonicalAll(evs)

	r := NewReader(bytes.NewReader(data))
	b := NewBlock(97)
	var out []Event
	for i := 0; ; i++ {
		if i%2 == 0 {
			n, ok := r.NextBlock(b, 97)
			out = appendBlock(out, b)
			if n == 0 && !ok {
				break
			}
		} else {
			for j := 0; j < 13; j++ {
				ev, ok := r.Next()
				if !ok {
					break
				}
				out = append(out, ev)
			}
		}
	}
	if err := r.Err(); err != nil {
		t.Fatalf("Err: %v", err)
	}
	eventsEqual(t, out, want)
}

// TestFailAfterBlockReportsInjectedError: exactly n events delivered on
// the block path, then the caller's injected error.
func TestFailAfterBlockReportsInjectedError(t *testing.T) {
	boom := errors.New("boom")
	src := NewFailAfter(NewSliceSource(testEvents(1000)), 700, boom)
	bs := AsBlocks(src)
	b := NewBlock(128)
	var got int
	for {
		n, ok := bs.NextBlock(b, 128)
		got += n
		if !ok {
			break
		}
	}
	if got != 700 {
		t.Fatalf("delivered %d events before failing, want 700", got)
	}
	if err := src.Err(); !errors.Is(err, boom) {
		t.Fatalf("Err: got %v, want injected error", err)
	}
}

// TestCorruptBlockLeavesSharedStorageIntact is the Own contract end to
// end: a Corrupt wrapper mutating blocks from a warm replay cursor must
// corrupt only its own consumer's view — a second, clean cursor over the
// same resident columns must still see the pristine stream.
func TestCorruptBlockLeavesSharedStorageIntact(t *testing.T) {
	evs := testEvents(3000)
	open := warmReplayCursor(t, evs)
	want := canonicalAll(evs)

	corrupted := drainBlocks(t, NewCorrupt(open(), 5, nil), 256)
	var mutated int
	for i := range corrupted {
		if corrupted[i] != want[i] {
			mutated++
		}
	}
	if mutated == 0 {
		t.Fatal("corrupt wrapper mutated nothing through the block path")
	}

	// The resident columns must be untouched.
	eventsEqual(t, drainBlocks(t, open(), 256), want)
}

// TestWarmBlockDrainZeroAlloc is the steady-state allocation guard for
// the hot path: draining a warm replay cursor through pooled blocks must
// not allocate per event — the full-trace drain is allowed only the
// constant per-open overhead (the cursor itself and its adapter checks).
func TestWarmBlockDrainZeroAlloc(t *testing.T) {
	const events = 100_000
	evs := testEvents(events)
	open := warmReplayCursor(t, evs)

	var total int64
	allocs := testing.AllocsPerRun(10, func() {
		src := open()
		bs := AsBlocks(src)
		b := GetBlock()
		for {
			n, ok := bs.NextBlock(b, BlockLen)
			total += int64(n)
			if !ok {
				break
			}
		}
		PutBlock(b)
	})
	if total == 0 {
		t.Fatal("drained nothing")
	}
	// Per-open constant overhead only: cursor allocation and cache
	// bookkeeping, nothing proportional to the 100k events drained.
	if allocs > 8 {
		t.Fatalf("warm block drain allocated %.0f times per full-trace drain; the per-event hot path must not allocate", allocs)
	}
}

// TestFeedBlocksMatchesFeed runs the streaming decoder's block entry
// point against the per-event oracle (decodeStreamEvent over the whole
// input) at every chunking of the same bytes — including chunks smaller
// than the columnar safety margin, which force the bounds-checked sweep
// to do all the work — and requires identical events, counts and tail
// behaviour.
func TestFeedBlocksMatchesFeed(t *testing.T) {
	evs := randomEvents(11, 5_000)
	data := encodeEvents(t, evs)
	want, err := oracleDecode(data)
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	for _, chunk := range []int{1, 3, 64, 71, 72, 73, 1024, len(data)} {
		d := NewStreamDecoder()
		var got []Event
		for pos := 0; pos < len(data); pos += chunk {
			end := min(pos+chunk, len(data))
			if err := d.FeedBlocks(data[pos:end], func(b *Block) {
				got = appendBlock(got, b)
			}); err != nil {
				t.Fatalf("chunk %d: FeedBlocks: %v", chunk, err)
			}
		}
		eventsEqual(t, got, want)
		if d.Events() != int64(len(want)) {
			t.Fatalf("chunk %d: decoder counted %d events, want %d", chunk, d.Events(), len(want))
		}
		if err := d.Close(); err != nil {
			t.Fatalf("chunk %d: Close after complete stream: %v", chunk, err)
		}
	}
}

// TestFeedBlocksLatchesDecodeError: corruption mid-stream latches, and
// every event before the corrupt one has been delivered and counted.
func TestFeedBlocksLatchesDecodeError(t *testing.T) {
	data := encodeEvents(t, testEvents(100))
	data = append(data, 0x3f) // invalid kind byte where the next event should start
	d := NewStreamDecoder()
	var got int
	err := d.FeedBlocks(data, func(b *Block) { got += b.Len() })
	if err == nil {
		t.Fatal("corrupt stream decoded cleanly")
	}
	if got != 100 || d.Events() != 100 {
		t.Fatalf("before the corrupt byte: delivered %d, counted %d, want 100", got, d.Events())
	}
	if err2 := d.FeedBlocks([]byte{0}, nil); !errors.Is(err2, err) {
		t.Fatalf("error not latched: first %v, then %v", err, err2)
	}
}

// TestAsBlocksReturnsNativeImplementation: a block-native source passes
// through AsBlocks untouched; a per-event one gets the adapter.
func TestAsBlocksReturnsNativeImplementation(t *testing.T) {
	s := NewSliceSource(testEvents(10))
	if AsBlocks(s) != BlockSource(s) {
		t.Fatalf("AsBlocks re-wrapped a native BlockSource")
	}
	u := &sliceSource{evs: testEvents(10)}
	if _, ok := AsBlocks(u).(*blockAdapter); !ok {
		t.Fatalf("AsBlocks did not adapt an unblocked source")
	}
}

// TestLimitBatchTruncatesExactly: a Limit truncates block delivery at
// exactly its budget, whether the budget falls inside a block, on a
// block boundary or past the end of the stream.
func TestLimitBatchTruncatesExactly(t *testing.T) {
	for _, limit := range []int64{0, 1, 63, 64, 65, 99, 100, 101, 250} {
		got := drainBlocks(t, NewLimit(NewSliceSource(testEvents(100)), limit), 64)
		eventsEqual(t, got, testEvents(100)[:min(limit, 100)])
	}
}

// TestFailAfterBatchReportsInjectedError: the default fault is
// ErrInjected, and the events before it arrive intact through blocks
// smaller than the budget.
func TestFailAfterBatchReportsInjectedError(t *testing.T) {
	src := NewFailAfter(NewSliceSource(testEvents(100)), 37, nil)
	b := NewBlock(16)
	var out []Event
	for {
		_, ok := src.NextBlock(b, 16)
		out = appendBlock(out, b)
		if !ok {
			break
		}
	}
	if err := src.Err(); err != ErrInjected {
		t.Fatalf("Err = %v, want ErrInjected", err)
	}
	eventsEqual(t, out, testEvents(100)[:37])
}

// TestCorruptBatchMutatesSameSchedule: block delivery applies Corrupt's
// every-k mutation to exactly the events per-event delivery mutates, at
// block sizes that do and do not divide k.
func TestCorruptBatchMutatesSameSchedule(t *testing.T) {
	const every = 7
	want := drainAll(t, NewCorrupt(NewSliceSource(testEvents(200)), every, nil))
	for _, bl := range []int{1, 5, 64, 200} {
		got := drainBlocks(t, NewCorrupt(NewSliceSource(testEvents(200)), every, nil), bl)
		eventsEqual(t, got, canonicalAll(want))
	}
}

// TestReaderBatchDecodes: the file Reader's block path returns the
// canonical stream the Writer encoded, at a block size that divides
// neither the stream nor the decode window.
func TestReaderBatchDecodes(t *testing.T) {
	want := canonicalAll(testEvents(500))
	got := drainBlocks(t, NewReader(bytes.NewReader(encodeEvents(t, want))), 33)
	eventsEqual(t, got, want)
}
