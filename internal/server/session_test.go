package server

import (
	"errors"
	"strings"
	"testing"
	"time"
)

// fakeClock drives the store's TTL logic without sleeping.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time             { return c.t }
func (c *fakeClock) advance(d time.Duration)    { c.t = c.t.Add(d) }
func newFakeClock() *fakeClock                  { return &fakeClock{t: time.Unix(1_000_000, 0)} }
func withClock(cfg Config, c *fakeClock) Config { cfg.Now = c.now; return cfg }

func TestStoreCapacityAndTTLEviction(t *testing.T) {
	clock := newFakeClock()
	cfg := testConfig()
	cfg.MaxSessions = 2
	cfg.SessionTTL = time.Minute
	st := newSessionStore(withClock(cfg, clock))

	a, err := st.create(SessionConfig{Predictor: "stride"})
	if err != nil {
		t.Fatalf("create a: %v", err)
	}
	if _, err := st.create(SessionConfig{Predictor: "cap"}); err != nil {
		t.Fatalf("create b: %v", err)
	}
	if _, err := st.create(SessionConfig{Predictor: "hybrid"}); !errors.Is(err, errTooManySessions) {
		t.Fatalf("third create: got %v, want errTooManySessions", err)
	}

	clock.advance(2 * time.Minute)
	if _, err := st.create(SessionConfig{Predictor: "hybrid"}); err != nil {
		t.Fatalf("create after TTL: %v", err)
	}
	if got := st.open(); got != 1 {
		t.Fatalf("open sessions after eviction: got %d, want 1", got)
	}
	if got := st.evicted.Load(); got != 2 {
		t.Fatalf("evicted count: got %d, want 2", got)
	}
	if _, err := st.get(a.ID); !errors.Is(err, errNotFound) {
		t.Fatalf("get evicted session: got %v, want errNotFound", err)
	}
}

func TestGetRefreshesTTL(t *testing.T) {
	clock := newFakeClock()
	cfg := testConfig()
	cfg.SessionTTL = time.Minute
	st := newSessionStore(withClock(cfg, clock))

	s, err := st.create(SessionConfig{Predictor: "last"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		clock.advance(45 * time.Second) // past half the TTL, under the whole
		if _, err := st.get(s.ID); err != nil {
			t.Fatalf("touch %d: %v", i, err)
		}
	}
	clock.advance(2 * time.Minute)
	if n := st.sweep(); n != 1 {
		t.Fatalf("sweep: got %d evictions, want 1", n)
	}
}

func TestSessionEventBudget(t *testing.T) {
	cfg := testConfig()
	cfg.SessionEventBudget = 100
	st := newSessionStore(cfg)
	s, err := st.create(SessionConfig{Predictor: "stride"})
	if err != nil {
		t.Fatal(err)
	}

	body := encodeTrace(t, collectEvents(t, 0, 150))
	res, err := s.ingest(st, body)
	if err != nil {
		t.Fatalf("first batch (budget pre-check admits it): %v", err)
	}
	if res.Events != 150 {
		t.Fatalf("events applied: got %d, want 150", res.Events)
	}
	if _, err := s.ingest(st, nil); !errors.Is(err, errBudget) {
		t.Fatalf("over-budget batch: got %v, want errBudget", err)
	}
	if got := st.ingested(); got != 150 {
		t.Fatalf("global ingested: got %d, want 150", got)
	}
}

func TestGlobalEventBudget(t *testing.T) {
	cfg := testConfig()
	cfg.GlobalEventBudget = 100
	st := newSessionStore(cfg)
	a, _ := st.create(SessionConfig{Predictor: "stride"})
	b, _ := st.create(SessionConfig{Predictor: "cap"})

	if _, err := a.ingest(st, encodeTrace(t, collectEvents(t, 0, 150))); err != nil {
		t.Fatalf("first batch: %v", err)
	}
	if _, err := b.ingest(st, encodeTrace(t, collectEvents(t, 1, 10))); !errors.Is(err, errBudget) {
		t.Fatalf("other session after global budget spent: got %v, want errBudget", err)
	}
}

func TestFinishedSessionSemantics(t *testing.T) {
	st := newSessionStore(testConfig())
	s, err := st.create(SessionConfig{Predictor: "hybrid", Gap: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.ingest(st, encodeTrace(t, collectEvents(t, 0, 200))); err != nil {
		t.Fatal(err)
	}
	if err := s.finish(); err != nil {
		t.Fatalf("finish: %v", err)
	}
	if err := s.finish(); err != nil {
		t.Fatalf("finish must be idempotent: %v", err)
	}
	if _, err := s.ingest(st, nil); !errors.Is(err, errFinished) {
		t.Fatalf("ingest after finish: got %v, want errFinished", err)
	}
}

func TestFinishReportsTruncatedStream(t *testing.T) {
	st := newSessionStore(testConfig())
	s, err := st.create(SessionConfig{Predictor: "stride"})
	if err != nil {
		t.Fatal(err)
	}
	data := encodeTrace(t, collectEvents(t, 0, 50))
	if _, err := s.ingest(st, data[:len(data)-1]); err != nil {
		t.Fatalf("partial body buffers the tail, no error yet: %v", err)
	}
	err = s.finish()
	if err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("finish on mid-event stream: got %v, want truncation error", err)
	}
}

func TestRejectedBatchLeavesSessionUntouched(t *testing.T) {
	cfg := testConfig()
	cfg.SessionEventBudget = 100
	st := newSessionStore(cfg)
	s, err := st.create(SessionConfig{Predictor: "cap"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.ingest(st, encodeTrace(t, collectEvents(t, 0, 120))); err != nil {
		t.Fatal(err)
	}
	before := s.snapshot()
	if _, err := s.ingest(st, []byte{1, 2, 3}); !errors.Is(err, errBudget) {
		t.Fatalf("got %v, want errBudget", err)
	}
	if after := s.snapshot(); after != before {
		t.Fatalf("rejected batch mutated the session: %+v vs %+v", after, before)
	}
}

// TestCorruptBodyCountsAppliedEvents: a body that fails to decode has
// already stepped the predictor over the events before the corrupt
// byte, so the session total and the global charge must count them —
// otherwise the counters disagree with the event count.
func TestCorruptBodyCountsAppliedEvents(t *testing.T) {
	st := newSessionStore(testConfig())
	cfg := SessionConfig{Predictor: "hybrid"}
	s, err := st.create(cfg)
	if err != nil {
		t.Fatal(err)
	}
	evs := collectEvents(t, 0, 5000)
	body := append(encodeTrace(t, evs), 0x3f) // invalid kind byte
	res, err := s.ingest(st, body)
	if err == nil {
		t.Fatal("corrupt body accepted")
	}
	snap := s.snapshot()
	if snap.Events != 5000 || res.Events != 5000 {
		t.Fatalf("after corrupt body: session events %d, result events %d, want 5000", snap.Events, res.Events)
	}
	if want := offlineCounters(t, cfg, evs); snap.C != want {
		t.Fatalf("counters diverge from offline run:\n  session %+v\n  offline %+v", snap.C, want)
	}
	if res.DLoads != snap.C.Loads || res.DPredicted != snap.C.Predicted || res.DCorrect != snap.C.Correct {
		t.Fatalf("result deltas %d/%d/%d, counters %+v", res.DLoads, res.DPredicted, res.DCorrect, snap.C)
	}
	if got := st.ingested(); got != 5000 {
		t.Fatalf("global charge %d, want 5000", got)
	}
	if snap.Batches != 0 {
		t.Fatalf("rejected body counted as batch %d", snap.Batches)
	}
}
