package load

// The HTTP client side of the fleet: strict Retry-After parsing (shared
// with examples/serving — a malformed hint is an error, never a silent
// default) and a thin capserve API client that cooperates with the
// server's backpressure the way a production client must: 429 waits out
// the advertised delay with a bounded retry budget, 413 splits the
// batch and resends the halves.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"
)

// ParseRetryAfter parses an HTTP Retry-After header value. ok reports
// whether the header carried a value at all (empty string means the
// server sent no hint — callers pick their own fallback). Both RFC 9110
// forms are accepted: delay-seconds and an HTTP-date, the latter
// resolved against now. A present-but-malformed value is an error —
// silently defaulting would hide a broken server from the one client
// positioned to notice it.
func ParseRetryAfter(v string, now time.Time) (d time.Duration, ok bool, err error) {
	if v == "" {
		return 0, false, nil
	}
	if secs, err := strconv.Atoi(v); err == nil {
		if secs < 0 {
			return 0, true, fmt.Errorf("load: negative Retry-After %q", v)
		}
		return time.Duration(secs) * time.Second, true, nil
	}
	if t, err := http.ParseTime(v); err == nil {
		d := t.Sub(now)
		if d < 0 {
			d = 0
		}
		return d, true, nil
	}
	return 0, true, fmt.Errorf("load: malformed Retry-After %q: not delay-seconds or an HTTP-date", v)
}

// StatusError is a non-2xx reply with the code kept inspectable.
type StatusError struct {
	Status int
	Msg    string
}

func (e *StatusError) Error() string { return e.Msg }

// Client drives the capserve API for one virtual user. It is not safe
// for concurrent use; the engine gives each user its own.
type Client struct {
	HC       *http.Client
	Base     string
	MaxTries int                 // attempts per request before giving up on 429s
	Now      func() time.Time    // injected clock (latency + Retry-After dates)
	Sleep    func(time.Duration) // injected so compressed runs and tests control waiting

	// On429 is called once per 429 response, before the backoff sleep.
	On429 func()
	// On413 is called once per 413 response, before the split.
	On413 func()
}

// Do issues one request for a path under Base and decodes the JSON
// reply into out (when non-nil). 429s wait the server's Retry-After (an
// absent hint falls back to 500ms; a malformed one is an error) and
// retry up to MaxTries; other non-2xx statuses return a *StatusError.
func (c *Client) Do(method, path string, body []byte, out any) error {
	url := c.Base + path
	var lastErr error
	for try := 0; try < c.MaxTries; try++ {
		req, err := http.NewRequest(method, url, bytes.NewReader(body))
		if err != nil {
			return err
		}
		resp, err := c.HC.Do(req)
		if err != nil {
			return err
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return err
		}
		if resp.StatusCode == http.StatusTooManyRequests {
			if c.On429 != nil {
				c.On429()
			}
			lastErr = &StatusError{resp.StatusCode,
				fmt.Sprintf("%s %s: %s: %s", method, url, resp.Status, bytes.TrimSpace(data))}
			wait, ok, err := ParseRetryAfter(resp.Header.Get("Retry-After"), c.Now())
			if err != nil {
				return err
			}
			if !ok {
				wait = 500 * time.Millisecond
			}
			c.Sleep(wait)
			continue
		}
		if resp.StatusCode/100 != 2 {
			return &StatusError{resp.StatusCode,
				fmt.Sprintf("%s %s: %s: %s", method, url, resp.Status, bytes.TrimSpace(data))}
		}
		if out == nil {
			return nil
		}
		return json.Unmarshal(data, out)
	}
	return fmt.Errorf("load: gave up after %d attempts: %w", c.MaxTries, lastErr)
}

// batchReply mirrors the wire shape of POST /v1/sessions/{id}/events.
type batchReply struct {
	Events  int64 `json:"events"`
	Total   int64 `json:"total_events"`
	Batches int64 `json:"batches"`
}

// sessionReply mirrors the wire shape of session create/get/delete.
type sessionReply struct {
	ID string `json:"id"`
}

// OpenSession opens a prediction session bound to the predictor kind.
func (c *Client) OpenSession(predictor string, gap int) (string, error) {
	body, err := json.Marshal(map[string]any{"predictor": predictor, "gap": gap})
	if err != nil {
		return "", err
	}
	var s sessionReply
	if err := c.Do("POST", "/v1/sessions", body, &s); err != nil {
		return "", err
	}
	return s.ID, nil
}

// PostEvents streams one chunk of v3 trace bytes at the session,
// splitting on 413 (any byte split yields the same counters — the
// server buffers partial events across POSTs). It returns the events
// the server acknowledged and the number of 200 responses it took
// (splits inflate the latter; the /metrics crosscheck counts server
// responses, not plan batches).
func (c *Client) PostEvents(id string, data []byte) (acked int64, posts int, err error) {
	var reply batchReply
	err = c.Do("POST", "/v1/sessions/"+id+"/events", data, &reply)
	if err == nil {
		return reply.Events, 1, nil
	}
	var se *StatusError
	if !errors.As(err, &se) || se.Status != http.StatusRequestEntityTooLarge || len(data) < 2 {
		return 0, 0, err
	}
	if c.On413 != nil {
		c.On413()
	}
	half := len(data) / 2
	n1, p1, err := c.PostEvents(id, data[:half])
	if err != nil {
		return n1, p1, err
	}
	n2, p2, err := c.PostEvents(id, data[half:])
	return n1 + n2, p1 + p2, err
}

// CloseSession finishes the session (drains the prediction gap).
func (c *Client) CloseSession(id string) error {
	return c.Do("DELETE", "/v1/sessions/"+id, nil, nil)
}

// Scrape fetches and parses the server's /metrics page into a
// name→value map. Labelled series sum into their family name, which is
// what the crosscheck wants (per-predictor counters roll up to the
// session totals).
func (c *Client) Scrape() (map[string]int64, error) {
	req, err := http.NewRequest("GET", c.Base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.HC.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("load: GET /metrics: %s", resp.Status)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	return parseMetrics(data)
}

// parseMetrics reads the Prometheus text exposition format, keeping
// integer-valued series only (the summaries' float sums are not part of
// the crosscheck).
func parseMetrics(data []byte) (map[string]int64, error) {
	out := make(map[string]int64)
	for _, line := range bytes.Split(data, []byte("\n")) {
		line = bytes.TrimSpace(line)
		if len(line) == 0 || line[0] == '#' {
			continue
		}
		sp := bytes.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		series, value := line[:sp], line[sp+1:]
		v, err := strconv.ParseInt(string(value), 10, 64)
		if err != nil {
			continue // float-valued series (summaries) are not crosschecked
		}
		name := series
		if br := bytes.IndexByte(series, '{'); br >= 0 {
			name = series[:br]
		}
		out[string(name)] += v
	}
	return out, nil
}
