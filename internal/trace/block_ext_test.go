package trace_test

import (
	"testing"

	"capred/internal/trace"
	"capred/internal/workload"
)

// TestBlockMatchesPerEvent checks that every block-native implementation
// and the per-event adapter yield exactly the canonical per-event stream,
// across block sizes that divide, straddle and exceed the stream length.
// It lives in the external test package so the matrix can include the
// workload generator, which imports trace.
func TestBlockMatchesPerEvent(t *testing.T) {
	want := trace.TestEvents(1000)
	spec, ok := workload.ByName("INT_go")
	if !ok {
		t.Fatal("INT_go missing from roster")
	}
	genEvents := trace.DrainAll(t, trace.NewLimit(spec.Open(), 5000))
	sources := map[string]struct {
		open func() trace.Source
		want []trace.Event
	}{
		"slice":   {func() trace.Source { return trace.NewSliceSource(want) }, want},
		"adapter": {func() trace.Source { return trace.PerEventOnly(want) }, want},
		"limit": {func() trace.Source {
			return trace.NewLimit(trace.NewSliceSource(trace.TestEvents(4000)), 1000)
		}, want},
		"corrupt-every-1e9": {func() trace.Source {
			return trace.NewCorrupt(trace.NewSliceSource(want), 1<<40, nil)
		}, want},
		// The cache stores the canonical form, like the v3 codec.
		"replay-warm": {trace.WarmReplayCursor(t, want), trace.CanonicalAll(want)},
		"generator": {func() trace.Source {
			return trace.NewLimit(spec.Open(), 5000)
		}, trace.CanonicalAll(genEvents)},
		"generator-empty": {func() trace.Source { return workload.NewGenerator(1) }, nil},
	}
	for name, src := range sources {
		for _, bl := range []int{1, 7, 100, 1000, 4096} {
			got := trace.DrainBlocks(t, src.open(), bl)
			if len(got) != len(src.want) {
				t.Fatalf("%s, block %d: got %d events, want %d", name, bl, len(got), len(src.want))
			}
			trace.EventsEqual(t, got, src.want)
		}
	}
}
