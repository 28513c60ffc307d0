package trace

import (
	"strings"
	"testing"
)

func TestCollectCountsAndClassification(t *testing.T) {
	var evs []Event
	// IP 1: constant address.
	for i := 0; i < 5; i++ {
		evs = append(evs, Event{Kind: KindLoad, IP: 1, Addr: 0x100})
	}
	// IP 2: stride 8.
	for i := 0; i < 5; i++ {
		evs = append(evs, Event{Kind: KindLoad, IP: 2, Addr: uint32(0x200 + 8*i)})
	}
	// IP 3: irregular.
	for _, a := range []uint32{0x10, 0x80, 0x40, 0x20, 0x90} {
		evs = append(evs, Event{Kind: KindLoad, IP: 3, Addr: a})
	}
	// Branches: 3 taken, 1 not.
	evs = append(evs,
		Event{Kind: KindBranch, IP: 4, Taken: true},
		Event{Kind: KindBranch, IP: 4, Taken: true},
		Event{Kind: KindBranch, IP: 4, Taken: true},
		Event{Kind: KindBranch, IP: 4, Taken: false},
	)
	evs = append(evs, Event{Kind: KindALU, IP: 5}, Event{Kind: KindStore, IP: 6, Addr: 1})

	s, err := Collect(NewSliceSource(evs))
	if err != nil {
		t.Fatal(err)
	}
	if s.Total != int64(len(evs)) {
		t.Errorf("Total = %d, want %d", s.Total, len(evs))
	}
	if s.ByKind[KindLoad] != 15 {
		t.Errorf("loads = %d, want 15", s.ByKind[KindLoad])
	}
	if s.LoadIPs != 3 {
		t.Errorf("LoadIPs = %d, want 3", s.LoadIPs)
	}
	if s.ConstantLoads != 1 || s.StrideLoads != 1 || s.OtherLoads != 1 {
		t.Errorf("classification = const %d stride %d other %d, want 1/1/1",
			s.ConstantLoads, s.StrideLoads, s.OtherLoads)
	}
	if got, want := s.TakenPct, 0.75; got != want {
		t.Errorf("TakenPct = %v, want %v", got, want)
	}
	if got := s.ByKind[KindLoad]; got != 15 {
		t.Errorf("ByKind[load] = %d, want 15", got)
	}
	if !strings.Contains(s.String(), "static loads: 3") {
		t.Errorf("String() missing static load count:\n%s", s.String())
	}
}

func TestCollectEmpty(t *testing.T) {
	s, err := Collect(NewSliceSource(nil))
	if err != nil {
		t.Fatal(err)
	}
	if s.Total != 0 || s.ByKind[KindLoad] != 0 {
		t.Errorf("empty stats: %+v", s)
	}
}

func TestSingleOccurrenceLoadIsConstant(t *testing.T) {
	// A load seen once has trivially constant behaviour.
	s, err := Collect(NewSliceSource([]Event{{Kind: KindLoad, IP: 9, Addr: 4}}))
	if err != nil {
		t.Fatal(err)
	}
	if s.ConstantLoads != 1 {
		t.Errorf("single-shot load classified as constant=%d", s.ConstantLoads)
	}
}

func TestTopLoads(t *testing.T) {
	var evs []Event
	for i := 0; i < 7; i++ {
		evs = append(evs, Event{Kind: KindLoad, IP: 100})
	}
	for i := 0; i < 3; i++ {
		evs = append(evs, Event{Kind: KindLoad, IP: 200})
	}
	evs = append(evs, Event{Kind: KindLoad, IP: 300})
	ips, counts, err := TopLoads(NewSliceSource(evs), 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(ips) != 2 || ips[0] != 100 || ips[1] != 200 {
		t.Errorf("TopLoads ips = %v, want [100 200]", ips)
	}
	if counts[0] != 7 || counts[1] != 3 {
		t.Errorf("TopLoads counts = %v, want [7 3]", counts)
	}
}

func TestTopLoadsTieBreaksByIP(t *testing.T) {
	evs := []Event{
		{Kind: KindLoad, IP: 7},
		{Kind: KindLoad, IP: 3},
	}
	ips, _, err := TopLoads(NewSliceSource(evs), 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(ips) != 2 || ips[0] != 3 || ips[1] != 7 {
		t.Errorf("tie-break order = %v, want [3 7]", ips)
	}
}
