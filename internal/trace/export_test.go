package trace

// Test helpers exported to the external trace_test package, whose tests
// may import packages that import trace (the workload generator).
var (
	TestEvents       = testEvents
	CanonicalAll     = canonicalAll
	EventsEqual      = eventsEqual
	DrainBlocks      = drainBlocks
	WarmReplayCursor = warmReplayCursor
	DrainAll         = drainAll
)

// PerEventOnly returns a Source over evs with no block method, so
// AsBlocks must install its per-event adapter.
func PerEventOnly(evs []Event) Source { return &sliceSource{evs: evs} }
