package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"capred/internal/metrics"
	"capred/internal/predictor"
	"capred/internal/predictor/tournament"
	"capred/internal/server"
	"capred/internal/sim"
	"capred/internal/trace"
	"capred/internal/workload"
)

const (
	// serveClients closed-loop clients share the two cores with the
	// server's handlers.
	serveClients = 2
	// batchEvents and maxBatches give every session the shape of
	// capload's default traffic (cmd/capload -batch-events 2000 -events
	// 6000): 1 to 5 POSTs of 2000 events, drawn uniformly, so 6000
	// events on average.
	batchEvents = 2000
	maxBatches  = 5
	// spanHeader carries a client span's run and id to the server, so
	// the handler span links to it as its parent.
	spanHeader = "X-Perfbench-Span"
)

// serveConf is one session configuration and its offline twin.
type serveConf struct {
	label string
	wire  server.SessionConfig
	gap   int
	build func() predictor.Predictor
}

// serveConfs cycle over the roster: the paper's hybrid, the 5-way
// tournament, and CAP under an 8-load prediction gap.
var serveConfs = []serveConf{
	{"hybrid", server.SessionConfig{Predictor: "hybrid"}, 0, func() predictor.Predictor {
		return predictor.NewHybrid(predictor.DefaultHybridConfig())
	}},
	{"tournament", server.SessionConfig{Predictor: "tournament"}, 0, func() predictor.Predictor {
		p, err := tournament.NewNamed(tournament.DefaultConfig(), false, tournament.DefaultComponents()...)
		if err != nil {
			panic(err) // default components always build
		}
		return p
	}},
	{"cap-gap8", server.SessionConfig{Predictor: "cap", Gap: 8}, 8, func() predictor.Predictor {
		c := predictor.DefaultCAPConfig()
		c.Speculative = true
		return predictor.NewCAP(c)
	}},
}

// sessionJob is one window of a trace streamed through one session
// configuration, with the counters an offline run expects after every
// batch.
type sessionJob struct {
	trace string
	conf  *serveConf
	data  []byte
	marks []int // byte offset where each batch ends

	// totals is the session's event count after each batch; want holds
	// the offline counters at those counts, and final is offline
	// sim.RunTrace over data.
	totals []int64
	want   []metrics.Counters
	final  metrics.Counters
}

// serveStream serves capserve in-process on loopback and drives it with
// closed-loop clients.
type serveStream struct {
	jobs []*sessionJob
	srv  *server.Server
	hs   *http.Server
	done chan struct{} // closed when hs.Serve returns
	base string
	hc   *http.Client

	tr atomic.Pointer[tracer] // non-nil while a traced pass runs

	mu     sync.Mutex
	counts // operations: session create, event POSTs, DELETE
	// postMs and served cover the untraced measured passes: per-POST
	// client latency, and the hybrid sessions' pooled SpecCorrect and
	// Loads. handler is the time inside ServeHTTP of traced event POSTs.
	postMs  []float64
	served  [2]int64
	handler []float64
}

// newServe cuts the seeded roster into sessions and starts the server:
// the serve-stream set-up. Each trace is split, front to back, into
// windows of 1 to maxBatches batches drawn from the seed; each window is
// encoded as a v3 stream of its own, for one session. Sessions take the
// traces in turn, and their configurations cycle.
func newServe(specs []workload.TraceSpec, seed int64) (*serveStream, error) {
	rng := rand.New(rand.NewSource(seed))
	perTrace := make([][]*sessionJob, len(specs))
	for i, spec := range specs {
		// One trace at a time: the server holds only the encoded bytes,
		// so the columns need not outlive their encoding.
		one := specs[i : i+1]
		src := openAll(materialise(one, rosterEvents), one, rosterEvents)[0]
		for {
			nb := 1 + rng.Intn(maxBatches)
			data, marks, n, err := encodeBatches(src, int64(nb*batchEvents))
			if err != nil {
				return nil, fmt.Errorf("encoding %s: %w", spec.Name, err)
			}
			if n == 0 {
				break
			}
			j := &sessionJob{trace: spec.Name, data: data, marks: marks}
			for k := range marks {
				j.totals = append(j.totals, min(int64(k+1)*batchEvents, n))
			}
			perTrace[i] = append(perTrace[i], j)
		}
	}
	windows := 0
	for _, js := range perTrace {
		windows = max(windows, len(js))
	}
	s := &serveStream{}
	for w := 0; w < windows; w++ {
		for _, js := range perTrace {
			if w < len(js) {
				js[w].conf = &serveConfs[len(s.jobs)%len(serveConfs)]
				s.jobs = append(s.jobs, js[w])
			}
		}
	}
	if err := s.start(); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *serveStream) start() error {
	cfg := server.DefaultConfig()
	cfg.Workers = 1
	// The default lifetime cap of 2e9 events would end a long run, or a
	// run of a much faster server, in 429s that are not the program's
	// fault; a benchmark server has no lifetime.
	cfg.GlobalEventBudget = 0
	s.srv = server.New(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.srv.Shutdown(context.Background())
		return err
	}
	s.base = "http://" + ln.Addr().String()
	s.hs = &http.Server{Handler: http.HandlerFunc(s.serveHTTP)}
	s.done = make(chan struct{})
	go func() {
		defer close(s.done)
		s.hs.Serve(ln)
	}()
	s.hc = &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: serveClients,
		DisableCompression:  true,
	}}
	return nil
}

// stop shuts the server down and waits for it to exit.
func (s *serveStream) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	s.hc.CloseIdleConnections()
	s.hs.Shutdown(ctx)
	<-s.done
	s.srv.Shutdown(ctx)
}

// serveHTTP is the handler the benchmark owns around capserve's: during
// a traced pass it records a server span linked to the client's.
func (s *serveStream) serveHTTP(w http.ResponseWriter, r *http.Request) {
	tr := s.tr.Load()
	h := r.Header.Get(spanHeader)
	if tr == nil || h == "" {
		s.srv.Handler().ServeHTTP(w, r)
		return
	}
	run, id, _ := strings.Cut(h, "/")
	parent, _ := strconv.ParseInt(id, 10, 64)
	start := tr.now()
	s.srv.Handler().ServeHTTP(w, r)
	d := tr.now() - start
	name := "ServeHTTP " + r.Method
	events := r.Method == http.MethodPost && strings.HasSuffix(r.URL.Path, "/events")
	if events {
		name += " events"
	}
	tr.add(span{ID: tr.id(), Parent: parent, Run: run, Name: name, Layer: "server", Start: start, End: start + d})
	if events {
		s.mu.Lock()
		s.handler = append(s.handler, float64(d)/1e6)
		s.mu.Unlock()
	}
}

// oracle computes every session's expected counters over the same
// bytes the clients send: after each batch with an offline Stepper fed
// by an independent decode, and at the end with sim.RunTrace.
func (s *serveStream) oracle() error {
	for _, j := range s.jobs {
		c, err := sim.RunTrace(trace.NewReader(bytes.NewReader(j.data)), j.conf.build(), j.conf.gap)
		if err != nil {
			return fmt.Errorf("offline %s: %w", j.trace, err)
		}
		j.final = c
		if j.want, err = j.prefixes(); err != nil {
			return err
		}
	}
	return nil
}

// prefixes steps an independent decode of the job's bytes through the
// offline stepper and snapshots its counters at each of the totals.
func (j *sessionJob) prefixes() ([]metrics.Counters, error) {
	st := sim.NewStepper(j.conf.build(), j.conf.gap)
	r := trace.NewReader(bytes.NewReader(j.data))
	b := trace.GetBlock()
	defer trace.PutBlock(b)
	out := make([]metrics.Counters, len(j.totals))
	var done int64
	more := true
	for k, tot := range j.totals {
		for more && done < tot {
			var n int
			n, more = r.NextBlock(b, int(min(trace.BlockLen, tot-done)))
			if n > 0 {
				st.StepBlock(b)
				done += int64(n)
			}
		}
		if done != tot {
			return nil, fmt.Errorf("%s: offline decode has %d events, want %d", j.trace, done, tot)
		}
		out[k] = st.C
	}
	return out, r.Err()
}

// batchReply and sessionReply mirror capserve's wire shapes.
type batchReply struct {
	Events   int64            `json:"events"`
	Total    int64            `json:"total_events"`
	Counters metrics.Counters `json:"counters"`
}

type sessionReply struct {
	ID       string           `json:"id"`
	Counters metrics.Counters `json:"counters"`
}

// pass streams every job once across the closed-loop clients and
// returns the events capserve acknowledged.
func (s *serveStream) pass(tr *tracer, run string) int64 {
	s.tr.Store(tr)
	defer s.tr.Store(nil)
	var next atomic.Int64
	var acked atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := &client{s: s, tr: tr, run: run}
			if tr != nil {
				cl.root, cl.rootStart = tr.id(), tr.now()
			}
			for {
				i := int(next.Add(1)) - 1
				if i >= len(s.jobs) {
					break
				}
				acked.Add(cl.stream(s.jobs[i]))
			}
			if tr != nil {
				tr.record(cl.root, 0, run, "client", noLayer, cl.rootStart)
			}
			s.mu.Lock()
			s.attempted += cl.attempted
			s.failed += cl.failed
			if tr == nil && run != warmUpRun {
				s.postMs = append(s.postMs, cl.postMs...)
				s.served[0] += cl.served[0]
				s.served[1] += cl.served[1]
			}
			s.mu.Unlock()
		}()
	}
	wg.Wait()
	return acked.Load()
}

// client is one closed-loop client's state for a pass.
type client struct {
	s         *serveStream
	tr        *tracer
	run       string
	root      int64
	rootStart int64

	counts
	postMs []float64
	served [2]int64
}

// stream runs one session: create, POST every batch, DELETE. It
// returns the events acknowledged and counts each request as an
// operation.
func (c *client) stream(j *sessionJob) int64 {
	body, _ := json.Marshal(j.conf.wire)
	var sess sessionReply
	c.attempted++
	if _, err := c.call("POST", "/v1/sessions", body, &sess, "create"); err != nil {
		c.fail("create %s: %v", j.trace, err)
		return 0
	}
	var acked int64
	off := 0
	for k, end := range j.marks {
		var br batchReply
		c.attempted++
		d, err := c.call("POST", "/v1/sessions/"+sess.ID+"/events", j.data[off:end], &br, "events")
		off = end
		if err != nil {
			c.fail("%s batch %d: %v", j.trace, k, err)
			continue
		}
		c.postMs = append(c.postMs, float64(d)/1e6)
		acked += br.Events
		if br.Total != j.totals[k] || br.Counters != j.want[k] {
			c.fail("%s (%s) batch %d: %d events acknowledged, counters %+v; offline has %d, %+v",
				j.trace, j.conf.label, k, br.Total, br.Counters, j.totals[k], j.want[k])
		}
	}
	var final sessionReply
	c.attempted++
	if _, err := c.call("DELETE", "/v1/sessions/"+sess.ID, nil, &final, "delete"); err != nil {
		c.fail("delete %s: %v", j.trace, err)
		return acked
	}
	if final.Counters != j.final {
		c.fail("%s (%s): served counters %+v diverge from offline RunTrace %+v", j.trace, j.conf.label, final.Counters, j.final)
	}
	if j.conf.label == "hybrid" {
		c.served[0] += final.Counters.SpecCorrect
		c.served[1] += final.Counters.Loads
	}
	return acked
}

func (c *client) fail(format string, args ...any) {
	c.failed++
	fmt.Fprintf(os.Stderr, "perfbench: serve-stream: "+format+"\n", args...)
}

// call issues one request, decodes a 2xx JSON reply into out and
// returns the client-side latency. During a traced pass it records a
// transport span that the server's span links to.
func (c *client) call(method, path string, body []byte, out any, name string) (time.Duration, error) {
	req, err := http.NewRequest(method, c.s.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	var id, start int64
	if c.tr != nil {
		id, start = c.tr.id(), c.tr.now()
		req.Header.Set(spanHeader, c.run+"/"+strconv.FormatInt(id, 10))
	}
	t0 := time.Now()
	resp, err := c.s.hc.Do(req)
	if err != nil {
		return 0, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	d := time.Since(t0)
	if c.tr != nil {
		c.tr.record(id, c.root, c.run, method+" "+name, "transport", start)
	}
	if err != nil {
		return d, err
	}
	if resp.StatusCode/100 != 2 {
		return d, errors.New(resp.Status + ": " + string(bytes.TrimSpace(data)))
	}
	return d, json.Unmarshal(data, out)
}
