package main

import (
	"context"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"capred"
	"capred/internal/server"
)

// startServer runs capserve in-process and returns its base URL.
func startServer(t *testing.T, cfg server.Config) string {
	t.Helper()
	srv := server.New(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	return "http://" + ln.Addr().String()
}

// TestClientHonorsRetryAfter: a session-limited server answers 429 +
// Retry-After; the client must wait the advertised delay and retry
// until capacity frees up, not fail on the first 429.
func TestClientHonorsRetryAfter(t *testing.T) {
	cfg := server.DefaultConfig()
	cfg.MaxSessions = 1
	base := startServer(t, cfg)

	c := newClient(base)
	first, err := c.OpenSession("hybrid", 0)
	if err != nil {
		t.Fatalf("opening first session: %v", err)
	}
	// Feed the session a small valid batch so its close (drain) succeeds.
	if _, _, err := c.PostEvents(first, encodeTrace(traceName, 100)); err != nil {
		t.Fatalf("priming first session: %v", err)
	}

	// The second open hits the session limit. The injected sleep records
	// the server's hint and frees capacity by closing the first session,
	// so the retry must then succeed.
	var slept []time.Duration
	c.Sleep = func(d time.Duration) {
		slept = append(slept, d)
		if err := c.CloseSession(first); err != nil {
			t.Errorf("closing first session: %v", err)
		}
	}
	if _, err := c.OpenSession("hybrid", 0); err != nil {
		t.Fatalf("second session never admitted: %v", err)
	}
	if len(slept) == 0 {
		t.Fatal("client never backed off on 429")
	}
	// The server advertises Retry-After: 1.
	if slept[0] != time.Second {
		t.Fatalf("first backoff = %v, want 1s from the Retry-After header", slept[0])
	}
}

// TestClientGivesUpAfterBudget: persistent 429s must end in an error
// after MaxTries, not an unbounded retry loop.
func TestClientGivesUpAfterBudget(t *testing.T) {
	cfg := server.DefaultConfig()
	cfg.MaxSessions = 1
	base := startServer(t, cfg)

	c := newClient(base)
	if _, err := c.OpenSession("hybrid", 0); err != nil {
		t.Fatal(err)
	}

	c.MaxTries = 3
	sleeps := 0
	c.Sleep = func(time.Duration) { sleeps++ } // capacity never frees
	if _, err := c.OpenSession("hybrid", 0); err == nil {
		t.Fatal("expected an error once the retry budget was spent")
	}
	if sleeps != 3 {
		t.Fatalf("slept %d times, want 3 (one per attempt)", sleeps)
	}
}

// TestClientSurfacesMalformedRetryAfter: a 429 whose Retry-After is
// garbage must fail the call with a parse error — the old client
// silently defaulted to 500ms, hiding the broken header. Regression for
// the strict load.ParseRetryAfter parsing.
func TestClientSurfacesMalformedRetryAfter(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "soon")
		w.WriteHeader(http.StatusTooManyRequests)
	}))
	defer ts.Close()

	c := newClient(ts.URL)
	slept := 0
	c.Sleep = func(time.Duration) { slept++ }
	_, err := c.OpenSession("hybrid", 0)
	if err == nil {
		t.Fatal("expected an error for the malformed Retry-After header")
	}
	if !strings.Contains(err.Error(), "Retry-After") {
		t.Fatalf("error %q does not name the malformed Retry-After header", err)
	}
	if slept != 0 {
		t.Fatalf("client slept %d times on a malformed hint; it must surface the error, not invent a backoff", slept)
	}
}

// TestClientAcceptsHTTPDateRetryAfter: the RFC 9110 HTTP-date form is a
// valid hint and must be honoured, not rejected.
func TestClientAcceptsHTTPDateRetryAfter(t *testing.T) {
	hits := 0
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits++
		if hits == 1 {
			w.Header().Set("Retry-After", time.Now().Add(2*time.Second).UTC().Format(http.TimeFormat))
			w.WriteHeader(http.StatusTooManyRequests)
			return
		}
		w.Write([]byte("{}"))
	}))
	defer ts.Close()

	c := newClient(ts.URL)
	var slept []time.Duration
	c.Sleep = func(d time.Duration) { slept = append(slept, d) }
	if _, err := c.OpenSession("hybrid", 0); err != nil {
		t.Fatalf("HTTP-date Retry-After must be honoured, got error: %v", err)
	}
	if len(slept) != 1 {
		t.Fatalf("slept %d times, want exactly 1", len(slept))
	}
	if slept[0] <= 0 || slept[0] > 2*time.Second {
		t.Fatalf("backoff %v outside (0, 2s] for a date 2s out", slept[0])
	}
}

// TestTournamentSessionMatchesOffline pins the example's tournament
// claim: a tournament session streamed over the wire in client-sized
// chunks ends with counters bit-identical to an offline RunTrace over
// the same events with an identically built tournament.
func TestTournamentSessionMatchesOffline(t *testing.T) {
	const n = 20_000
	base := startServer(t, server.DefaultConfig())

	c := newClient(base)
	id, err := c.OpenSession("tournament", 0)
	if err != nil {
		t.Fatal(err)
	}
	final, err := stream(c, id, encodeTrace(traceName, n))
	if err != nil {
		t.Fatal(err)
	}

	spec, _ := capred.TraceByName(traceName)
	want, err := capred.RunTrace(capred.Limit(spec.Open(), n), capred.NewFullTournament(false), 0)
	if err != nil {
		t.Fatal(err)
	}
	if final.Counters != want {
		t.Fatalf("tournament session counters diverge from offline run:\nserved  %+v\noffline %+v",
			final.Counters, want)
	}
}

// TestClientSplitsOversizedBatch: a server with a tiny body bound
// answers 413; the client must split the batch and deliver every
// event, ending with counters bit-identical to the offline run.
func TestClientSplitsOversizedBatch(t *testing.T) {
	const n = 20_000
	cfg := server.DefaultConfig()
	cfg.MaxBatchBytes = 512 // far below the test's chunk size
	base := startServer(t, cfg)

	c := newClient(base)
	c.Sleep = func(time.Duration) {}
	id, err := c.OpenSession("hybrid", 0)
	if err != nil {
		t.Fatal(err)
	}

	// One oversized chunk (the whole trace); PostEvents must recurse
	// down to acceptable slices without dropping or reordering bytes.
	splits := 0
	c.On413 = func() { splits++ }
	if _, _, err := c.PostEvents(id, encodeTrace(traceName, n)); err != nil {
		t.Fatalf("streaming with splits: %v", err)
	}
	if splits == 0 {
		t.Fatal("server never answered 413; the test exercises no split")
	}
	var final sessionView
	if err := c.Do("DELETE", "/v1/sessions/"+id, nil, &final); err != nil {
		t.Fatal(err)
	}

	spec, _ := capred.TraceByName(traceName)
	p := capred.NewHybrid(capred.DefaultHybridConfig())
	want, err := capred.RunTrace(capred.Limit(spec.Open(), n), p, 0)
	if err != nil {
		t.Fatal(err)
	}
	if final.Counters != want {
		t.Fatalf("split-streamed counters diverge from offline run:\nserved  %+v\noffline %+v",
			final.Counters, want)
	}
}
