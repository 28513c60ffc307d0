package cpu

// Column-contract differential for the timing model: Run reads the
// trace.Block columns directly, and a column holds stale data wherever
// the event's kind does not carry that field. Feeding one event
// sequence through zeroed columns and through junk-filled columns of
// random block sizes must give the same Result, field for field; a read
// that is not gated on the kind (Src2 of a branch, Lat of a non-ALU op)
// picks up the junk and moves the cycle count.

import (
	"math/rand"
	"testing"

	"capred/internal/predictor"
	"capred/internal/trace"
)

// colSource delivers events as blocks. With a nil rng every column is
// zeroed and blocks are full; with an rng every column of every block is
// first filled with junk and blocks have random sizes. Either way
// SetEvent then writes exactly the fields each kind carries.
type colSource struct {
	evs []trace.Event
	pos int
	rng *rand.Rand
}

// Next implements trace.Source.
func (s *colSource) Next() (trace.Event, bool) {
	if s.pos >= len(s.evs) {
		return trace.Event{}, false
	}
	s.pos++
	return s.evs[s.pos-1], true
}

// Err implements trace.Source.
func (s *colSource) Err() error { return nil }

// NextBlock implements trace.BlockSource.
func (s *colSource) NextBlock(b *trace.Block, max int) (int, bool) {
	n := max
	if s.rng != nil {
		n = 1 + s.rng.Intn(max)
	}
	if rest := len(s.evs) - s.pos; n > rest {
		n = rest
	}
	b.Resize(n)
	for i := 0; i < n; i++ {
		var junk uint32
		if s.rng != nil {
			junk = s.rng.Uint32()
		}
		// Small junk in the dependence columns lands inside the
		// completion ring, where a stray read changes readiness.
		b.KindTaken[i] = uint8(junk)
		b.IP[i] = junk
		b.Addr[i] = junk
		b.Val[i] = junk
		b.Offset[i] = int32(junk)
		b.Src1[i] = junk % 64
		b.Src2[i] = junk >> 8 % 64
		b.Lat[i] = uint8(junk >> 16)
		b.SetEvent(i, s.evs[s.pos+i])
	}
	s.pos += n
	return n, s.pos < len(s.evs)
}

// randomEvents expands bytes into events, four bytes each. Every field
// is set whatever the kind, so the fields a kind does not carry differ
// from zero and only SetEvent's kind gating keeps them out of the
// columns.
func randomEvents(data []byte) []trace.Event {
	evs := make([]trace.Event, 0, len(data)/4)
	for i := 0; i+4 <= len(data); i += 4 {
		k, a, b, c := data[i], data[i+1], data[i+2], data[i+3]
		ev := trace.Event{
			Kind:   trace.Kind(k % 6),
			IP:     uint32(a)<<4 | uint32(k>>4),
			Addr:   uint32(b)<<8 | uint32(c),
			Val:    uint32(c) * 3,
			Offset: int32(int8(b)),
			Src1:   uint32(c & 15),
			Src2:   uint32(b & 15),
			Taken:  c&1 == 1,
			Lat:    c >> 4 % 8,
		}
		evs = append(evs, ev)
	}
	return evs
}

// checkColumnContract runs evs through clean and junk columns, with no
// predictor and with a speculative hybrid at gap 8.
func checkColumnContract(t *testing.T, evs []trace.Event, seed int64) {
	t.Helper()
	for _, gap := range []int{-1, 8} {
		run := func(rng *rand.Rand) Result {
			var p predictor.Predictor
			if gap >= 0 {
				hc := predictor.DefaultHybridConfig()
				hc.Speculative = true
				p = predictor.NewHybrid(hc)
			}
			return Run(&colSource{evs: evs, rng: rng}, p, max(gap, 0), DefaultConfig())
		}
		clean := run(nil)
		junk := run(rand.New(rand.NewSource(seed)))
		if clean != junk {
			t.Fatalf("gap %d: Result depends on stale column data over %d events:\nclean %+v\njunk  %+v",
				gap, len(evs), clean, junk)
		}
		if clean.Instructions != int64(len(evs)) {
			t.Fatalf("gap %d: retired %d of %d events", gap, clean.Instructions, len(evs))
		}
	}
}

func TestRunColumnContract(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	data := make([]byte, 4*20_000)
	rng.Read(data)
	checkColumnContract(t, randomEvents(data), 2)
}

func FuzzRunColumns(f *testing.F) {
	f.Add(int64(1), []byte{0, 1, 2, 3, 2, 200, 9, 9, 5, 7, 7, 7})
	f.Add(int64(7), []byte("branches, calls and ALU ops with junk behind them"))
	f.Add(int64(3), make([]byte, 4*300)) // long all-ALU run, IP 0
	f.Fuzz(func(t *testing.T, seed int64, data []byte) {
		checkColumnContract(t, randomEvents(data), seed)
	})
}
