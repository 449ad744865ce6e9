package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"questpro/internal/api"
	qpclient "questpro/internal/client"
)

// countingTransport sees every attempt the client makes, so a refusal the
// client retried away still shows up in the per-layer counts.
type countingTransport struct {
	base http.RoundTripper

	attempts, refused, unavailable, serverErr, transportErr atomic.Int64
}

func (t *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	t.attempts.Add(1)
	resp, err := t.base.RoundTrip(req)
	switch {
	case err != nil:
		t.transportErr.Add(1)
	case resp.StatusCode == http.StatusTooManyRequests:
		t.refused.Add(1)
	case resp.StatusCode == http.StatusServiceUnavailable:
		t.unavailable.Add(1)
	case resp.StatusCode >= 500:
		t.serverErr.Add(1)
	}
	return resp, err
}

// benchSpan is one call the benchmark timed from outside the program.
type benchSpan struct {
	kind    string // for HTTP requests, questprod's endpoint label (create, examples, infer, feedback, feedback_answer, delete, trace)
	key     string // which input of the pool the call served
	startNs int64
	durNs   int64
	failed  bool
}

func newSpan(kind string, start time.Time, err error) benchSpan {
	return benchSpan{kind: kind, startNs: start.UnixNano(), durNs: time.Since(start).Nanoseconds(), failed: err != nil}
}

// recorder collects the client-side record of a run. Safe for concurrent
// use by the client goroutines.
type recorder struct {
	mu         sync.Mutex
	spans      []benchSpan
	dialogueMs []float64 // examples → Done; +Inf for a failed dialogue
	dialogueKs []string  // the pool input of each dialogueMs entry
	dialogues  int       // completed and matching
	passRates  []float64 // dialogues per second of each whole pass over the pool
	turns      int
	failed     int
	mutations  int // requests that change durable state
	snapKB     []float64
	errs       []string
}

func (r *recorder) span(kind string, start time.Time, err error) { r.keyedSpan(kind, "", start, err) }

// keyedSpan records a request made for the pool input key; see perInput.
func (r *recorder) keyedSpan(kind, key string, start time.Time, err error) {
	sp := newSpan(kind, start, err)
	sp.key = key
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, sp)
	if err != nil {
		r.failed++
		r.noteLocked(fmt.Sprintf("%s: %v", kind, err))
	}
	if kind != "trace" {
		r.mutations++
	}
	if kind == "feedback" || kind == "feedback_answer" {
		r.turns++
	}
}

func (r *recorder) noteLocked(msg string) {
	if len(r.errs) < 8 {
		r.errs = append(r.errs, msg)
	}
}

// dialogue records a finished dialogue. A mismatch against the control is a
// failure of the request that completed it.
func (r *recorder) dialogue(key string, ms float64, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.dialogueKs = append(r.dialogueKs, key)
	if err != nil {
		r.dialogueMs = append(r.dialogueMs, math.Inf(1))
		if errors.Is(err, errMismatch) {
			r.failed++
			r.noteLocked(err.Error())
		}
		return
	}
	r.dialogueMs = append(r.dialogueMs, ms)
	r.dialogues++
}

// pass records a whole pass over the pool: n dialogues since start.
func (r *recorder) pass(n int, start time.Time) {
	r.mu.Lock()
	r.passRates = append(r.passRates, float64(n)/time.Since(start).Seconds())
	r.mu.Unlock()
}

func (r *recorder) snapshotKB(kb float64) {
	r.mu.Lock()
	r.snapKB = append(r.snapKB, kb)
	r.mu.Unlock()
}

// perInput returns one latency per pool input and request: the median, in
// ms, of the durations the run measured for it, one per pass over the
// pool. A run repeats the same inputs pass after pass, so these medians
// hold the program's cost per input while a burst of load on the host
// that spans fewer than half the passes drops out. An input with a failed
// request reads +Inf: a failure misses every latency limit.
func (r *recorder) perInput(kinds ...string) []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var keys []string
	var ms []float64
	for _, s := range r.spans {
		for _, k := range kinds {
			if s.kind == k {
				keys = append(keys, s.kind+" "+s.key)
				ms = append(ms, spanMs(s))
			}
		}
	}
	return medianPerKey(keys, ms)
}

// dialoguesPerInput is perInput for whole dialogues.
func (r *recorder) dialoguesPerInput() []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return medianPerKey(r.dialogueKs, r.dialogueMs)
}

// medianPerKey groups ms by key and returns each group's median, or +Inf
// for a group holding an +Inf.
func medianPerKey(keys []string, ms []float64) []float64 {
	groups := map[string][]float64{}
	var order []string
	for i, k := range keys {
		if _, ok := groups[k]; !ok {
			order = append(order, k)
		}
		groups[k] = append(groups[k], ms[i])
	}
	out := make([]float64, 0, len(order))
	for _, k := range order {
		v := median(groups[k])
		if quantile(groups[k], 1) == math.Inf(1) {
			v = math.Inf(1)
		}
		out = append(out, v)
	}
	return out
}

func spanMs(s benchSpan) float64 {
	if s.failed {
		return math.Inf(1)
	}
	return float64(s.durNs) / 1e6
}

// latencies returns the durations in ms of the spans of the given kinds,
// +Inf for a failed request: a failure misses every latency limit.
func (r *recorder) latencies(kinds ...string) []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []float64
	for _, s := range r.spans {
		for _, k := range kinds {
			if s.kind == k {
				out = append(out, spanMs(s))
			}
		}
	}
	return out
}

var errMismatch = errors.New("dialogue differs from its control")

// client is one closed-loop user: it sends the next request only after
// the previous one returned.
type client struct {
	cl  *qpclient.Client
	rec *recorder
	key string // the pool input the next requests serve
}

// newHTTPClient builds the run's shared HTTP client: at most conns
// connections to the target, every attempt counted.
func newHTTPClient(conns int) (*http.Client, *countingTransport) {
	tr := &countingTransport{base: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		IdleConnTimeout:     time.Minute,
	}}
	return &http.Client{Transport: tr}, tr
}

func newClient(base string, hc *http.Client, rec *recorder, seed int64) *client {
	return &client{rec: rec, cl: qpclient.New(qpclient.Config{
		BaseURL:        base,
		MaxRetries:     3,
		BaseDelay:      20 * time.Millisecond,
		MaxDelay:       time.Second,
		AttemptTimeout: time.Minute,
		Seed:           seed,
		HTTPClient:     hc,
	})}
}

func (c *client) create(ctx context.Context, ontology string) (string, error) {
	t := time.Now()
	id, err := c.cl.CreateSession(ctx, ontology, nil)
	c.rec.keyedSpan("create", c.key, t, err)
	return id, err
}

func (c *client) delete(ctx context.Context, id string) error {
	t := time.Now()
	err := c.cl.DeleteSession(ctx, id)
	c.rec.keyedSpan("delete", c.key, t, err)
	return err
}

// park runs a dialogue up to its first event: examples, top-k inference,
// feedback start. It returns the event and when the dialogue began.
func (c *client) park(ctx context.Context, id string, d *DialogueInput) (*api.FeedbackResponse, time.Duration, error) {
	t0 := time.Now()
	t := t0
	err := c.cl.SetExamples(ctx, id, d.Examples)
	c.rec.keyedSpan("examples", c.key, t, err)
	if err != nil {
		return nil, 0, err
	}
	t = time.Now()
	_, err = c.cl.Infer(ctx, id, "topk", 0)
	c.rec.keyedSpan("infer", c.key, t, err)
	if err != nil {
		return nil, 0, err
	}
	t = time.Now()
	ev, err := c.cl.StartFeedback(ctx, id, 0)
	c.rec.keyedSpan("feedback", c.key, t, err)
	return ev, time.Since(t0), err
}

// finish answers ev and every later question from the exact oracle until
// the dialogue decides, then checks the transcript against want.
func (c *client) finish(ctx context.Context, id string, d *DialogueInput, ev *api.FeedbackResponse, want Transcript) (time.Duration, error) {
	t0 := time.Now()
	var got Transcript
	for !ev.Done {
		if len(got.Questions) >= len(want.Questions) || ev.Result != want.Questions[len(got.Questions)] {
			return time.Since(t0), fmt.Errorf("%w: question %d is %q, control: %v", errMismatch, len(got.Questions), ev.Result, want.Questions)
		}
		got.Questions = append(got.Questions, ev.Result)
		t := time.Now()
		next, err := c.cl.AnswerFeedback(ctx, id, d.includes(ev.Result))
		c.rec.keyedSpan("feedback_answer", fmt.Sprintf("%s.a%d", c.key, len(got.Questions)), t, err)
		if err != nil {
			return time.Since(t0), err
		}
		if next.Redelivered {
			// The answer was not consumed; the event is the question to answer.
			got.Questions = got.Questions[:len(got.Questions)-1]
		}
		ev = next
	}
	got.SPARQL = ev.SPARQL
	if !got.Equal(want) {
		return time.Since(t0), fmt.Errorf("%w: got %d questions and %q, control %d questions and %q",
			errMismatch, len(got.Questions), got.SPARQL, len(want.Questions), want.SPARQL)
	}
	return time.Since(t0), nil
}

// dialogue runs one whole dialogue on an existing session and records it.
func (c *client) dialogue(ctx context.Context, id string, d *DialogueInput, want Transcript) error {
	ev, parked, err := c.park(ctx, id, d)
	if err != nil {
		c.rec.dialogue(c.key, 0, err)
		return err
	}
	rest, err := c.finish(ctx, id, d, ev, want)
	c.rec.dialogue(c.key, float64((parked+rest).Nanoseconds())/1e6, err)
	return err
}
