package trace

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"testing"
)

// encodeEvents renders evs in the binary format, header included.
func encodeEvents(t *testing.T, evs []Event) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for _, ev := range evs {
		if err := w.Emit(ev); err != nil {
			t.Fatalf("Emit: %v", err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return buf.Bytes()
}

// randomEvents builds a deterministic pseudo-random event mix.
func randomEvents(seed int64, n int) []Event {
	rng := rand.New(rand.NewSource(seed))
	evs := make([]Event, n)
	for i := range evs {
		evs[i] = Event{
			Kind:   Kind(rng.Intn(int(numKinds))),
			IP:     rng.Uint32(),
			Addr:   rng.Uint32(),
			Val:    rng.Uint32(),
			Offset: int32(rng.Uint32()),
			Taken:  rng.Intn(2) == 0,
			Src1:   rng.Uint32() % 1024,
			Src2:   rng.Uint32() % 1024,
			Lat:    uint8(rng.Intn(20)),
		}
	}
	return evs
}

// feedAll drives a StreamDecoder over data in fixed-size chunks.
func feedAll(t *testing.T, data []byte, chunk int) ([]Event, error) {
	t.Helper()
	d := NewStreamDecoder()
	var out []Event
	collect := func(b *Block) { out = appendBlock(out, b) }
	for pos := 0; pos < len(data); pos += chunk {
		if err := d.FeedBlocks(data[pos:min(pos+chunk, len(data))], collect); err != nil {
			return out, err
		}
	}
	return out, d.Close()
}

// oracleDecode decodes data (header + events) with a plain loop of the
// bounds-checked per-event decoder: the reference every bulk decode path
// is held to.
func oracleDecode(data []byte) ([]Event, error) {
	if len(data) < 5 || [4]byte(data[:4]) != magic {
		return nil, ErrBadMagic
	}
	if data[4] != formatVersion {
		return nil, ErrBadVersion
	}
	var st deltaState
	var out []Event
	for pos := 5; pos < len(data); {
		ev, next, err := decodeStreamEvent(data, pos, &st)
		if err == errShortEvent {
			return out, errTruncatedEvent
		}
		if err != nil {
			return out, err
		}
		out = append(out, ev)
		pos = next
	}
	return out, nil
}

func TestStreamDecoderChunkSizes(t *testing.T) {
	evs := randomEvents(7, 500)
	data := encodeEvents(t, evs)
	for _, chunk := range []int{1, 2, 3, 5, 7, 64, 4096, len(data)} {
		got, err := feedAll(t, data, chunk)
		if err != nil {
			t.Fatalf("chunk %d: %v", chunk, err)
		}
		if len(got) != len(evs) {
			t.Fatalf("chunk %d: decoded %d events, want %d", chunk, len(got), len(evs))
		}
		for i := range evs {
			if got[i] != canonical(evs[i]) {
				t.Fatalf("chunk %d: event %d = %+v, want %+v", chunk, i, got[i], canonical(evs[i]))
			}
		}
	}
}

func TestStreamDecoderEmptyStream(t *testing.T) {
	data := encodeEvents(t, nil) // header only
	got, err := feedAll(t, data, 2)
	if err != nil || len(got) != 0 {
		t.Fatalf("header-only stream: got %d events, err %v", len(got), err)
	}
}

func TestStreamDecoderBadHeader(t *testing.T) {
	if _, err := feedAll(t, []byte("XXXX\x03rest"), 3); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("bad magic: got %v", err)
	}
	if _, err := feedAll(t, []byte{'C', 'A', 'P', 'T', 99}, 2); !errors.Is(err, ErrBadVersion) {
		t.Fatalf("bad version: got %v", err)
	}
	// A stream that ends before a full header is indistinguishable from a
	// non-trace stream.
	if _, err := feedAll(t, []byte("CAP"), 1); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("short header: got %v", err)
	}
	if _, err := feedAll(t, nil, 1); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("empty stream: got %v", err)
	}
}

func TestStreamDecoderTruncatedTail(t *testing.T) {
	evs := randomEvents(11, 50)
	data := encodeEvents(t, evs)
	for cut := len(data) - 1; cut > len(data)-10 && cut > 5; cut-- {
		got, err := feedAll(t, data[:cut], 7)
		if err == nil {
			t.Fatalf("cut at %d: no error from truncated stream", cut)
		}
		if len(got) >= len(evs) {
			t.Fatalf("cut at %d: decoded %d events from truncated stream of %d", cut, len(got), len(evs))
		}
	}
}

func TestStreamDecoderInvalidKind(t *testing.T) {
	data := append(encodeEvents(t, randomEvents(3, 4)), 0x17) // kind 23 is invalid
	_, err := feedAll(t, data, 3)
	if err == nil {
		t.Fatal("invalid kind byte not rejected")
	}
}

func TestStreamDecoderErrorLatches(t *testing.T) {
	d := NewStreamDecoder()
	if err := d.FeedBlocks([]byte("XXXXXXXX"), nil); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("first FeedBlocks: %v", err)
	}
	if err := d.FeedBlocks(encodeEvents(t, randomEvents(1, 3)), nil); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("error did not latch: %v", err)
	}
	if err := d.Close(); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("Close after error: %v", err)
	}
}

// TestStreamDecoderDecodeStream drains an io.Reader in odd-sized reads
// through FeedBlocks — the shape of a request body arriving in transport
// chunks — and must agree with the in-memory decode of the same bytes.
func TestStreamDecoderDecodeStream(t *testing.T) {
	evs := randomEvents(23, 3000)
	data := encodeEvents(t, evs)
	d := NewStreamDecoder()
	var got []Event
	collect := func(b *Block) { got = appendBlock(got, b) }
	r := iotest{r: bytes.NewReader(data), step: 13}
	var buf [64]byte
	for {
		n, err := r.Read(buf[:])
		if ferr := d.FeedBlocks(buf[:n], collect); ferr != nil {
			t.Fatalf("FeedBlocks: %v", ferr)
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("Read: %v", err)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	eventsEqual(t, got, canonicalAll(evs))
	if d.Events() != int64(len(evs)) {
		t.Fatalf("Events() = %d, want %d", d.Events(), len(evs))
	}
}

// TestStreamDecoderSpansReaders: one logical stream split across two
// request bodies decodes seamlessly, with the cut inside an event.
func TestStreamDecoderSpansReaders(t *testing.T) {
	evs := randomEvents(29, 200)
	data := encodeEvents(t, evs)
	cut := len(data) / 2
	d := NewStreamDecoder()
	var got []Event
	collect := func(b *Block) { got = appendBlock(got, b) }
	if err := d.FeedBlocks(data[:cut], collect); err != nil {
		t.Fatalf("first body: %v", err)
	}
	if err := d.FeedBlocks(data[cut:], collect); err != nil {
		t.Fatalf("second body: %v", err)
	}
	if err := d.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	eventsEqual(t, got, canonicalAll(evs))
}

// iotest delivers at most step bytes per Read, forcing chunk reassembly.
type iotest struct {
	r    io.Reader
	step int
}

func (s iotest) Read(p []byte) (int, error) {
	if len(p) > s.step {
		p = p[:s.step]
	}
	return s.r.Read(p)
}

// FuzzStreamDecoder holds both bulk decode paths to the per-event
// oracle over identical bytes: FeedBlocks fed in random chunk sizes, and
// the windowed Reader. All three must decode the same events and fail on
// the same inputs — including truncated and corrupt tails, where every
// event before the bad one must still be delivered.
func FuzzStreamDecoder(f *testing.F) {
	valid := func(n int) []byte {
		var buf bytes.Buffer
		w := NewWriter(&buf)
		rng := rand.New(rand.NewSource(int64(n)))
		for i := 0; i < n; i++ {
			_ = w.Emit(Event{
				Kind: Kind(rng.Intn(int(numKinds))), IP: rng.Uint32(), Addr: rng.Uint32(),
				Val: rng.Uint32(), Offset: int32(rng.Uint32()), Taken: i%2 == 0,
				Src1: rng.Uint32() % 512, Src2: rng.Uint32() % 512, Lat: uint8(i),
			})
		}
		_ = w.Close()
		return buf.Bytes()
	}
	f.Add(valid(20), int64(3))
	f.Add(valid(5)[:20], int64(1))          // truncated mid-event
	f.Add(append(valid(2), 0x42), int64(4)) // corrupt tail kind
	f.Add([]byte("CAPT\x03"), int64(1))
	f.Add([]byte("CAPT\x02"), int64(2))
	f.Add([]byte{}, int64(1))

	f.Fuzz(func(t *testing.T, data []byte, seed int64) {
		want, wantErr := oracleDecode(data)
		check := func(path string, got []Event, gotErr error) {
			t.Helper()
			if (wantErr == nil) != (gotErr == nil) {
				t.Fatalf("%s: error divergence: oracle=%v %s=%v", path, wantErr, path, gotErr)
			}
			if len(got) != len(want) {
				t.Fatalf("%s: decoded %d events, oracle %d (oracle err %v)", path, len(got), len(want), wantErr)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s: event %d: %+v, oracle %+v", path, i, got[i], want[i])
				}
			}
		}

		// FeedBlocks over random chunk sizes, 1 to 2*decodeMargin bytes so
		// both the columnar bulk and the margin sweep see chunk edges.
		rng := rand.New(rand.NewSource(seed))
		d := NewStreamDecoder()
		var got []Event
		var gotErr error
		collect := func(b *Block) { got = appendBlock(got, b) }
		for pos := 0; pos < len(data) && gotErr == nil; {
			end := min(pos+1+rng.Intn(2*decodeMargin), len(data))
			gotErr = d.FeedBlocks(data[pos:end], collect)
			pos = end
		}
		if gotErr == nil {
			gotErr = d.Close()
		}
		check("FeedBlocks", got, gotErr)

		r := NewReader(bytes.NewReader(data))
		b := NewBlock(BlockLen)
		var read []Event
		for {
			_, ok := r.NextBlock(b, 1+rng.Intn(BlockLen))
			read = appendBlock(read, b)
			if !ok {
				break
			}
		}
		check("Reader", read, r.Err())
	})
}
