package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestGateChecksTimingFigures runs the gate at a tiny size against
// hand-written baselines: one every fresh figure clears, and one whose
// cpu.Run figure no host reaches, which must fail the gate.
func TestGateChecksTimingFigures(t *testing.T) {
	const events, traces = 2000, 1
	gate := func(timing timingReport) int {
		t.Helper()
		base := report{
			Drain:   drainReport{WarmCursorMEvS: 1e-6},
			Predict: predictReport{TournamentMEvS: 1e-6},
			Timing:  timing,
		}
		raw, err := json.Marshal(base)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "base.json")
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		return gateBaseline(path, 0.10, events, traces)
	}
	if code := gate(timingReport{NoPredMEvS: 1e-6, HybridGap8MEvS: 1e-6}); code != 0 {
		t.Fatalf("gate against reachable baselines: exit %d, want 0", code)
	}
	if code := gate(timingReport{NoPredMEvS: 1e-6, HybridGap8MEvS: 1e9}); code != 1 {
		t.Fatalf("gate against an unreachable hybrid gap-8 figure: exit %d, want 1", code)
	}
	if code := gate(timingReport{NoPredMEvS: 1e9}); code != 1 {
		t.Fatalf("gate against an unreachable no-prediction figure: exit %d, want 1", code)
	}
}

func TestTimingBench(t *testing.T) {
	r := timingBench(2000, 2)
	if r.Traces != 2 || r.EventsPerTrace != 2000 {
		t.Fatalf("report covers %d traces x %d events, want 2 x 2000", r.Traces, r.EventsPerTrace)
	}
	if r.NoPredMEvS <= 0 || r.HybridGap8MEvS <= 0 {
		t.Fatalf("non-positive throughput: %+v", r)
	}
}
