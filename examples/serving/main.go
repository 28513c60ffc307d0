// The serving example drives capserve's HTTP API end to end: it starts
// the server in-process on a loopback port, opens a prediction session
// bound to the paper's hybrid predictor, streams a synthetic trace at it
// in small chunked POSTs, and shows that the counters the server hands
// back are bit-identical to an offline RunTrace over the same events.
// It then submits an experiment to the async job queue, polls it to
// completion, and prints the rendered table.
//
// Run with:
//
//	go run ./examples/serving
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"strings"
	"time"

	"capred"
	"capred/internal/load"
	"capred/internal/server"
)

const (
	traceName = "INT_xli"
	events    = 60_000
	chunk     = 8 << 10 // stream in 8 KiB POSTs to exercise re-chunking
)

// sessionView mirrors the wire shape of GET/DELETE /v1/sessions/{id}.
type sessionView struct {
	ID       string          `json:"id"`
	Events   int64           `json:"events"`
	Batches  int64           `json:"batches"`
	Counters capred.Counters `json:"counters"`
}

// jobView mirrors the wire shape of GET /v1/jobs/{id}.
type jobView struct {
	ID          string `json:"id"`
	State       string `json:"state"`
	ShardsDone  int64  `json:"shards_done"`
	ShardsTotal int64  `json:"shards_total"`
	Error       string `json:"error,omitempty"`
}

// newClient returns a capserve client that cooperates with the
// server's backpressure: 429 replies are retried after the server's
// Retry-After hint (bounded attempts), and oversized event batches
// (413) are split and resent in halves.
func newClient(base string) *load.Client {
	return &load.Client{HC: http.DefaultClient, Base: base, MaxTries: 10, Now: time.Now, Sleep: time.Sleep}
}

// stream posts the trace bytes to a session in chunk-sized POSTs, then
// closes the session and returns its final view. Chunk boundaries are
// arbitrary: the server buffers partial events across POSTs, so any
// split of the byte stream yields the same counters.
func stream(c *load.Client, id string, data []byte) (sessionView, error) {
	for off := 0; off < len(data); off += chunk {
		if _, _, err := c.PostEvents(id, data[off:min(off+chunk, len(data))]); err != nil {
			return sessionView{}, err
		}
	}
	// The DELETE reply carries the final counters.
	var final sessionView
	err := c.Do("DELETE", "/v1/sessions/"+id, nil, &final)
	return final, err
}

// encodeTrace renders n events of the named trace in the v3 binary
// format — the same bytes tracegen would write to a file.
func encodeTrace(name string, n int64) []byte {
	spec, ok := capred.TraceByName(name)
	if !ok {
		log.Fatalf("unknown trace %q", name)
	}
	var buf bytes.Buffer
	w := capred.NewTraceWriter(&buf)
	src := capred.Limit(spec.Open(), n)
	for {
		ev, ok := src.Next()
		if !ok {
			break
		}
		if err := w.Emit(ev); err != nil {
			log.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		log.Fatal(err)
	}
	return buf.Bytes()
}

func main() {
	// Start capserve in-process. Everything below this block is a plain
	// HTTP client and would work identically against `capserve -addr`.
	cfg := server.DefaultConfig()
	cfg.JobEvents = 50_000 // keep the demo job quick
	srv := server.New(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go srv.Serve(ln)
	base := "http://" + ln.Addr().String()
	fmt.Printf("capserve listening on %s\n\n", ln.Addr())
	c := newClient(base)

	// Open a session bound to the hybrid (stride + CAP) predictor and
	// stream the trace through it.
	id, err := c.OpenSession("hybrid", 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("opened session %s (predictor=hybrid)\n", id)
	data := encodeTrace(traceName, events)
	final, err := stream(c, id, data)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("streamed %s: %d loads over %d batches\n",
		traceName, final.Counters.Loads, final.Batches)

	// The same events through the offline path must agree bit for bit:
	// sessions and RunTrace share one per-event stepper.
	p := capred.NewHybrid(capred.DefaultHybridConfig())
	spec, _ := capred.TraceByName(traceName)
	want, err := capred.RunTrace(capred.Limit(spec.Open(), events), p, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("served  accuracy: %6.2f%%  (%d/%d correct)\n",
		100*float64(final.Counters.Correct)/float64(final.Counters.Loads),
		final.Counters.Correct, final.Counters.Loads)
	fmt.Printf("offline accuracy: %6.2f%%  (%d/%d correct)\n",
		100*float64(want.Correct)/float64(want.Loads), want.Correct, want.Loads)
	if final.Counters != want {
		log.Fatalf("served counters diverge from offline RunTrace:\nserved  %+v\noffline %+v",
			final.Counters, want)
	}
	fmt.Println("served counters are bit-identical to offline RunTrace")

	// Same protocol, bigger predictor: a tournament session puts all five
	// components (stride, CAP, Markov, delta-delta, call-path) behind one
	// meta-chooser. The wire contract is unchanged — and so is the
	// bit-for-bit guarantee against the offline path.
	tid, err := c.OpenSession("tournament", 0)
	if err != nil {
		log.Fatal(err)
	}
	tfinal, err := stream(c, tid, data)
	if err != nil {
		log.Fatal(err)
	}
	twant, err := capred.RunTrace(capred.Limit(spec.Open(), events), capred.NewFullTournament(false), 0)
	if err != nil {
		log.Fatal(err)
	}
	if tfinal.Counters != twant {
		log.Fatalf("tournament session counters diverge from offline RunTrace:\nserved  %+v\noffline %+v",
			tfinal.Counters, twant)
	}
	fmt.Printf("\ntournament session: %6.2f%% correct (%d/%d), bit-identical to offline RunTrace\n",
		100*float64(tfinal.Counters.Correct)/float64(tfinal.Counters.Loads),
		tfinal.Counters.Correct, tfinal.Counters.Loads)

	// Every speculative access the session made was attributed to exactly
	// one winning component on /metrics; show where the chooser spent them.
	resp0, err := http.Get(base + "/metrics")
	if err != nil {
		log.Fatal(err)
	}
	scrape, _ := io.ReadAll(resp0.Body)
	resp0.Body.Close()
	for _, line := range strings.Split(string(scrape), "\n") {
		if strings.HasPrefix(line, "capserve_tournament_selected_total{") {
			fmt.Println("  " + line)
		}
	}

	// Now the job queue: submit a registry experiment, poll until done,
	// fetch the rendered table.
	body, _ := json.Marshal(server.JobRequest{Experiment: "baselines"})
	var job jobView
	if err := c.Do("POST", "/v1/jobs", body, &job); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nsubmitted job %s (experiment=baselines)\n", job.ID)
	for job.State == "queued" || job.State == "running" {
		time.Sleep(100 * time.Millisecond)
		if err := c.Do("GET", "/v1/jobs/"+job.ID, nil, &job); err != nil {
			log.Fatal(err)
		}
	}
	if job.State != "done" {
		log.Fatalf("job %s: %s: %s", job.ID, job.State, job.Error)
	}
	fmt.Printf("job finished (%d/%d shards); table:\n\n", job.ShardsDone, job.ShardsTotal)
	req, _ := http.NewRequest("GET", base+"/v1/jobs/"+job.ID+"/table", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		log.Fatal(err)
	}
	table, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	fmt.Print(string(table))

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nserver drained cleanly")
}
