package server

import (
	"strings"
	"testing"
	"time"
)

func TestRegistryRender(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("z_batches_total", "Batches.", "")
	c.Add(3)
	r.Counter("a_loads_total", "Loads by kind.", `predictor="cap"`).Add(7)
	r.Counter("a_loads_total", "Loads by kind.", `predictor="stride"`).Add(2)
	r.GaugeFunc("m_open", "Open things.", "", func() int64 { return 5 })
	tm := r.Timing("m_wait_seconds", "Waiting.")
	tm.Observe(1500 * time.Millisecond)
	tm.Observe(500 * time.Millisecond)

	var b strings.Builder
	r.Render(&b)
	want := `# HELP a_loads_total Loads by kind.
# TYPE a_loads_total counter
a_loads_total{predictor="cap"} 7
a_loads_total{predictor="stride"} 2
# HELP m_open Open things.
# TYPE m_open gauge
m_open 5
# HELP m_wait_seconds Waiting.
# TYPE m_wait_seconds summary
m_wait_seconds_sum 2
m_wait_seconds_count 2
# HELP z_batches_total Batches.
# TYPE z_batches_total counter
z_batches_total 3
`
	if b.String() != want {
		t.Fatalf("render mismatch:\n--- got ---\n%s\n--- want ---\n%s", b.String(), want)
	}
	if got := tm.Count(); got != 2 {
		t.Fatalf("timing count: got %d, want 2", got)
	}
}

func TestRegistryReusesSeries(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "X.", "")
	b := r.Counter("x_total", "X.", "")
	if a != b {
		t.Fatal("same name+labels must return the same series")
	}
}

func TestRegistryTypeConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total", "X.", "")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge must panic")
		}
	}()
	r.GaugeFunc("x_total", "X.", "", func() int64 { return 0 })
}
