package trace

import (
	"testing"
)

func TestKindString(t *testing.T) {
	want := map[Kind]string{
		KindALU:    "alu",
		KindLoad:   "load",
		KindStore:  "store",
		KindBranch: "branch",
		KindCall:   "call",
		KindReturn: "return",
		Kind(99):   "invalid",
	}
	for k, s := range want {
		if got := k.String(); got != s {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, s)
		}
	}
}

func TestKindValid(t *testing.T) {
	for k := Kind(0); k < numKinds; k++ {
		if !k.Valid() {
			t.Errorf("Kind(%d).Valid() = false, want true", k)
		}
	}
	if Kind(numKinds).Valid() {
		t.Errorf("Kind(%d).Valid() = true, want false", numKinds)
	}
}

func TestEventIsMem(t *testing.T) {
	if !(Event{Kind: KindLoad}).IsMem() {
		t.Error("load should be mem")
	}
	if !(Event{Kind: KindStore}).IsMem() {
		t.Error("store should be mem")
	}
	if (Event{Kind: KindBranch}).IsMem() {
		t.Error("branch should not be mem")
	}
	if (Event{Kind: KindALU}).IsMem() {
		t.Error("alu should not be mem")
	}
}

func TestEventLatencyDefault(t *testing.T) {
	if got := (Event{}).Latency(); got != 1 {
		t.Errorf("zero Lat should mean 1 cycle, got %d", got)
	}
	if got := (Event{Lat: 4}).Latency(); got != 4 {
		t.Errorf("Lat 4 should mean 4 cycles, got %d", got)
	}
}

func TestSliceSource(t *testing.T) {
	evs := []Event{
		{Kind: KindLoad, IP: 1, Addr: 100},
		{Kind: KindBranch, IP: 2, Taken: true},
	}
	src := NewSliceSource(evs)
	for i, want := range evs {
		got, ok := src.Next()
		if !ok {
			t.Fatalf("event %d: unexpected end of stream", i)
		}
		if got != want {
			t.Errorf("event %d: got %+v, want %+v", i, got, want)
		}
	}
	if _, ok := src.Next(); ok {
		t.Error("expected end of stream")
	}
	if src.Err() != nil {
		t.Errorf("unexpected error: %v", src.Err())
	}
}

func TestLimit(t *testing.T) {
	evs := make([]Event, 10)
	for i := range evs {
		evs[i] = Event{Kind: KindALU, IP: uint32(i)}
	}
	lim := NewLimit(NewSliceSource(evs), 3)
	var n int
	for {
		_, ok := lim.Next()
		if !ok {
			break
		}
		n++
	}
	if n != 3 {
		t.Errorf("Limit yielded %d events, want 3", n)
	}
	if lim.Err() != nil {
		t.Errorf("unexpected error: %v", lim.Err())
	}
}

func TestLimitZero(t *testing.T) {
	lim := NewLimit(NewSliceSource([]Event{{Kind: KindALU}}), 0)
	if _, ok := lim.Next(); ok {
		t.Error("Limit(0) should yield nothing")
	}
}

func TestCopy(t *testing.T) {
	evs := []Event{
		{Kind: KindLoad, IP: 10, Addr: 0x1000, Offset: 8},
		{Kind: KindStore, IP: 11, Addr: 0x2000},
		{Kind: KindALU, IP: 12, Src1: 1},
	}
	var sink SliceSink
	n, err := Copy(&sink, NewSliceSource(evs))
	if err != nil {
		t.Fatalf("Copy: %v", err)
	}
	if n != int64(len(evs)) {
		t.Errorf("Copy transferred %d events, want %d", n, len(evs))
	}
	for i := range evs {
		if sink.Events[i] != evs[i] {
			t.Errorf("event %d: got %+v, want %+v", i, sink.Events[i], evs[i])
		}
	}
}
