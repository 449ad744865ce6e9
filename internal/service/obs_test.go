package service_test

// Observability-layer tests (DESIGN.md §9): the per-session trace endpoint,
// the Prometheus exposition at /metrics, request-id propagation, the
// structured access log, and the chaos-facing invariants (a recovered panic
// still produces a finished root span; /metrics stays scrapeable mid-storm).

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"testing"

	"questpro/internal/faults"
	"questpro/internal/obs"
	"questpro/internal/service"
)

// getTraces fetches and decodes the session's retained root spans.
func getTraces(t *testing.T, c *client, base string) []map[string]any {
	t.Helper()
	status, resp := c.do(http.MethodGet, base+"/trace", nil)
	if status != http.StatusOK {
		t.Fatalf("trace: status %d (%v)", status, resp)
	}
	raw, _ := resp["traces"].([]any)
	var out []map[string]any
	for _, n := range raw {
		m, ok := n.(map[string]any)
		if !ok {
			t.Fatalf("trace node is %T, want object", n)
		}
		out = append(out, m)
	}
	return out
}

// findRoot returns the last retained root span of the given kind, or nil.
func findRoot(traces []map[string]any, kind string) map[string]any {
	var found map[string]any
	for _, n := range traces {
		if n["kind"] == kind {
			found = n
		}
	}
	return found
}

// checkDurations walks a decoded span tree asserting that at every level
// the children's summed durations do not exceed the parent's (the session
// is created with workers=1, so all child work is sequential and nested).
func checkDurations(t *testing.T, node map[string]any, path string) {
	t.Helper()
	parent, _ := node["duration_ns"].(float64)
	children, _ := node["children"].([]any)
	sum := 0.0
	for i, ch := range children {
		c := ch.(map[string]any)
		sum += c["duration_ns"].(float64)
		checkDurations(t, c, fmt.Sprintf("%s/%v[%d]", path, c["kind"], i))
	}
	if sum > parent {
		t.Errorf("%s: children sum %v ns > parent %v ns", path, sum, parent)
	}
}

// TestTraceEndpointSpanTree drives one inference on a workers=1 session and
// checks the invariants the trace endpoint promises: a session.infer root
// whose nested child durations sum to no more than each parent, and whose
// root counters equal the session's /stats totals.
func TestTraceEndpointSpanTree(t *testing.T) {
	c := newTestServer(t, service.Config{})
	base := createPaperfixSession(t, c, map[string]any{"workers": 1})
	if status, resp := c.post(base+"/infer", map[string]any{"mode": "union"}); status != http.StatusOK {
		t.Fatalf("infer: status %d (%v)", status, resp)
	}

	traces := getTraces(t, c, base)
	if findRoot(traces, "session.examples") == nil {
		t.Error("no session.examples root span retained")
	}
	root := findRoot(traces, "session.infer")
	if root == nil {
		t.Fatalf("no session.infer root span in %d traces", len(traces))
	}
	if root["outcome"] != "ok" {
		t.Errorf("session.infer outcome = %v, want ok", root["outcome"])
	}
	labels, _ := root["labels"].(map[string]any)
	if labels["mode"] != "union" {
		t.Errorf("session.infer mode label = %v, want union", labels["mode"])
	}
	if labels["session_id"] == "" || labels["request_id"] == "" {
		t.Errorf("session.infer missing session/request labels: %v", labels)
	}
	checkDurations(t, root, "session.infer")

	// The root's counters are the per-operation deltas; with exactly one
	// inference they must equal the session's cumulative /stats totals.
	status, stats := c.do(http.MethodGet, base+"/stats", nil)
	if status != http.StatusOK {
		t.Fatalf("stats: status %d", status)
	}
	want, _ := stats["counters"].(map[string]any)
	got, _ := root["counters"].(map[string]any)
	for _, key := range []string{"algorithm1_calls", "rounds", "cache_hits", "cache_misses", "gain_evals", "restarts"} {
		g, _ := got[key].(float64)
		w, _ := want[key].(float64)
		if g != w {
			t.Errorf("root counter %s = %v, stats total = %v", key, got[key], want[key])
		}
	}
}

// TestTraceFeedbackDialogue drives the feedback dialogue to completion and
// checks the dialogue's own root span lands in the session trace with the
// questions counter set.
func TestTraceFeedbackDialogue(t *testing.T) {
	c := newTestServer(t, service.Config{TraceRing: 16})
	want := paperfixWant(t)
	base := createPaperfixSession(t, c, nil)
	if status, _ := c.post(base+"/infer", map[string]any{"mode": "topk"}); status != http.StatusOK {
		t.Fatal("infer failed")
	}
	status, resp := c.post(base+"/feedback", nil)
	if status != http.StatusOK {
		t.Fatalf("feedback: status %d", status)
	}
	questions := 0
	for i := 0; i < 32; i++ {
		if done, _ := resp["done"].(bool); done {
			break
		}
		res, _ := resp["result"].(string)
		questions++
		status, resp = c.post(base+"/feedback/answer", map[string]any{"include": want[res]})
		if status != http.StatusOK {
			t.Fatalf("answer: status %d (%v)", status, resp)
		}
	}
	if done, _ := resp["done"].(bool); !done {
		t.Fatal("dialogue did not converge")
	}

	// The request that delivered the outcome finished the dialogue span.
	dlg := findRoot(getTraces(t, c, base), "feedback.dialogue")
	if dlg == nil {
		t.Fatal("feedback.dialogue root span missing from the trace")
	}
	if dlg["outcome"] != "ok" {
		t.Fatalf("feedback.dialogue outcome = %v, want ok", dlg["outcome"])
	}
	counters, _ := dlg["counters"].(map[string]any)
	if got, _ := counters["questions"].(float64); int(got) != questions {
		t.Fatalf("feedback.dialogue questions = %v, asked %d", counters["questions"], questions)
	}
}

// TestTraceRingEviction caps the per-session ring at 2 and runs three
// operations: the oldest trace (session.examples) must be evicted.
func TestTraceRingEviction(t *testing.T) {
	c := newTestServer(t, service.Config{TraceRing: 2})
	base := createPaperfixSession(t, c, nil)
	for i := 0; i < 2; i++ {
		if status, _ := c.post(base+"/infer", map[string]any{"mode": "union"}); status != http.StatusOK {
			t.Fatalf("infer %d failed", i)
		}
	}
	traces := getTraces(t, c, base)
	if len(traces) != 2 {
		t.Fatalf("ring retained %d traces, want 2", len(traces))
	}
	for _, n := range traces {
		if n["kind"] != "session.infer" {
			t.Errorf("ring retained %v, want only the two youngest (session.infer)", n["kind"])
		}
	}
}

// rawMetrics scrapes /metrics and returns the parsed families.
func rawMetrics(t *testing.T, c *client) map[string]*obs.MetricFamily {
	t.Helper()
	resp, err := c.http.Get(c.base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("metrics Content-Type = %q", ct)
	}
	fams, err := obs.ParsePromText(resp.Body)
	if err != nil {
		t.Fatalf("metrics do not parse as Prometheus text format: %v", err)
	}
	return fams
}

// TestMetricsPromFormat checks /metrics against a strict text-exposition
// parser: every family has HELP and TYPE, counters are *_total, and both
// latency-histogram families are present and internally consistent.
func TestMetricsPromFormat(t *testing.T) {
	c := newTestServer(t, service.Config{})
	base := createPaperfixSession(t, c, nil)
	if status, _ := c.post(base+"/infer", map[string]any{"mode": "union"}); status != http.StatusOK {
		t.Fatal("infer failed")
	}

	fams := rawMetrics(t, c)
	for name, mf := range fams {
		if mf.Help == "" {
			t.Errorf("family %s has no # HELP", name)
		}
		if mf.Type == "" {
			t.Errorf("family %s has no # TYPE", name)
		}
		if mf.Type == "counter" && !strings.HasSuffix(name, "_total") {
			t.Errorf("counter family %s does not end in _total", name)
		}
	}
	for name, typ := range map[string]string{
		"questprod_sessions_active":               "gauge",
		"questprod_worker_budget":                 "gauge",
		"questprod_sessions_created_total":        "counter",
		"questprod_infer_total":                   "counter",
		"questprod_gain_evals_total":              "counter",
		"questprod_panics_recovered_total":        "counter",
		"questprod_http_request_duration_seconds": "histogram",
		"questprod_span_duration_seconds":         "histogram",
	} {
		mf := fams[name]
		if mf == nil {
			t.Errorf("family %s missing from /metrics", name)
			continue
		}
		if mf.Type != typ {
			t.Errorf("family %s type = %s, want %s", name, mf.Type, typ)
		}
	}
	if mf := fams["questprod_infer_total"]; mf != nil {
		if v, ok := mf.Value(); !ok || v != 1 {
			t.Errorf("questprod_infer_total = %v, want 1", v)
		}
	}
	// The histograms carry per-endpoint / per-kind labels; the infer above
	// must have recorded into both.
	found := map[string]bool{}
	if mf := fams["questprod_http_request_duration_seconds"]; mf != nil {
		for _, s := range mf.Samples {
			found["endpoint:"+s.Labels["endpoint"]] = true
		}
	}
	if mf := fams["questprod_span_duration_seconds"]; mf != nil {
		for _, s := range mf.Samples {
			found["kind:"+s.Labels["kind"]] = true
		}
	}
	for _, want := range []string{"endpoint:infer", "endpoint:create", "kind:session.infer", "kind:merge.pair"} {
		if !found[want] {
			t.Errorf("no histogram samples for %s", want)
		}
	}
}

// TestMetricsScrapeUnderLoad scrapes /metrics continuously while sessions
// run: every scrape must parse cleanly (the -race build of this test is
// the consistency audit for writeMetrics' one-snapshot rule).
func TestMetricsScrapeUnderLoad(t *testing.T) {
	c := newTestServer(t, service.Config{})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				rawMetrics(t, c)
			}
		}()
	}
	var flows sync.WaitGroup
	for i := 0; i < 4; i++ {
		flows.Add(1)
		go func() {
			defer flows.Done()
			chaosFlow(t, c)
		}()
	}
	flows.Wait()
	close(stop)
	wg.Wait()

	fams := rawMetrics(t, c)
	if mf := fams["questprod_sessions_created_total"]; mf != nil {
		if v, _ := mf.Value(); v < 4 {
			t.Errorf("questprod_sessions_created_total = %v, want >= 4", v)
		}
	}
}

// TestRequestIDPropagation checks both halves of the request-id contract:
// an incoming X-Request-Id is honored and echoed; a missing one is minted
// and echoed.
func TestRequestIDPropagation(t *testing.T) {
	c := newTestServer(t, service.Config{})

	req, _ := http.NewRequest(http.MethodGet, c.base+"/healthz", nil)
	req.Header.Set("X-Request-Id", "rid-12345")
	resp, err := c.http.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-Id"); got != "rid-12345" {
		t.Errorf("incoming request id not echoed: got %q", got)
	}

	resp, err = c.http.Get(c.base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-Id"); got == "" {
		t.Error("no request id minted for a bare request")
	}

	// Two bare requests get distinct ids.
	resp2, err := c.http.Get(c.base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if a, b := resp.Header.Get("X-Request-Id"), resp2.Header.Get("X-Request-Id"); a == b {
		t.Errorf("two requests share request id %q", a)
	}
}

// TestFaultPanicRequestIDInLastError injects a panic at budget admission on
// a request carrying a known X-Request-Id: the recovered error stored in
// the session's last_error must name that request id, so an operator can
// join the 500 response, the access log and the session state.
func TestFaultPanicRequestIDInLastError(t *testing.T) {
	c := newTestServer(t, service.Config{})
	base := createPaperfixSession(t, c, nil)

	in := faults.NewInjector(1, faults.Rule{Point: faults.BudgetAcquire, OnNth: 1, Panic: true})
	restore := faults.Activate(in)
	body, _ := json.Marshal(map[string]any{"mode": "union"})
	req, _ := http.NewRequest(http.MethodPost, c.base+base+"/infer", bytes.NewReader(body))
	req.Header.Set("X-Request-Id", "rid-panic-join")
	resp, err := c.http.Do(req)
	restore()
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("infer under panic: status %d, want 500", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Request-Id"); got != "rid-panic-join" {
		t.Errorf("500 response lost the request id: got %q", got)
	}

	status, stats := c.do(http.MethodGet, base+"/stats", nil)
	if status != http.StatusOK {
		t.Fatalf("stats: status %d", status)
	}
	lastErr, _ := stats["last_error"].(string)
	if !strings.Contains(lastErr, "rid-panic-join") {
		t.Errorf("last_error %q does not name the request id", lastErr)
	}
}

// syncWriter serializes writes from concurrent request handlers into one
// buffer for log assertions.
type syncWriter struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (w *syncWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.Write(p)
}

func (w *syncWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}

// TestAccessLogFields routes the structured log into a buffer and checks
// the per-request record carries the fields an operator greps for.
func TestAccessLogFields(t *testing.T) {
	var out syncWriter
	logger := slog.New(slog.NewJSONHandler(&out, nil))
	c := newTestServer(t, service.Config{Logger: logger})
	createPaperfixSession(t, c, nil)

	var create map[string]any
	for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n") {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("log line is not JSON: %q", line)
		}
		if rec["msg"] == "request" && rec["endpoint"] == "create" {
			create = rec
		}
	}
	if create == nil {
		t.Fatalf("no request record for the create endpoint in:\n%s", out.String())
	}
	if create["method"] != "POST" {
		t.Errorf("method = %v, want POST", create["method"])
	}
	if status, _ := create["status"].(float64); status != float64(http.StatusCreated) {
		t.Errorf("status = %v, want 201", create["status"])
	}
	if rid, _ := create["request_id"].(string); rid == "" {
		t.Error("request record has no request_id")
	}
	if _, ok := create["duration_ms"].(float64); !ok {
		t.Errorf("duration_ms = %v, want a number", create["duration_ms"])
	}
	for _, flag := range []string{"shed", "degraded", "panic"} {
		if v, ok := create[flag].(bool); !ok || v {
			t.Errorf("%s = %v, want false", flag, create[flag])
		}
	}
}

// TestChaosPanicRootSpanOutcome checks a recovered panic still produces a
// finished root span: the trace for the poisoned inference is retained
// with outcome=panic, not dropped mid-unwind.
func TestChaosPanicRootSpanOutcome(t *testing.T) {
	c := newTestServer(t, service.Config{})
	base := createPaperfixSession(t, c, nil)

	in := faults.NewInjector(1, faults.Rule{Point: faults.BudgetAcquire, OnNth: 1, Panic: true})
	restore := faults.Activate(in)
	status, _ := c.post(base+"/infer", map[string]any{"mode": "union"})
	restore()
	if status != http.StatusInternalServerError {
		t.Fatalf("infer under panic: status %d, want 500", status)
	}

	root := findRoot(getTraces(t, c, base), "session.infer")
	if root == nil {
		t.Fatal("panicked inference left no session.infer root span")
	}
	if root["outcome"] != "panic" {
		t.Errorf("root span outcome = %v, want panic", root["outcome"])
	}

	// The session is not poisoned: a clean inference afterwards traces ok.
	if status, _ := c.post(base+"/infer", map[string]any{"mode": "union"}); status != http.StatusOK {
		t.Fatalf("clean infer after panic: status %d", status)
	}
	if root := findRoot(getTraces(t, c, base), "session.infer"); root["outcome"] != "ok" {
		t.Errorf("post-recovery root span outcome = %v, want ok", root["outcome"])
	}
}

// TestChaosMetricsScrapeableMidStorm keeps /metrics scrapeable and
// parseable while panics are being injected under concurrent sessions.
func TestChaosMetricsScrapeableMidStorm(t *testing.T) {
	c := newTestServer(t, service.Config{})
	in := faults.NewInjector(7,
		faults.Rule{Point: faults.MergePair, Prob: 0.2, MaxFires: 64, Panic: true},
		faults.Rule{Point: faults.BudgetAcquire, Prob: 0.2, MaxFires: 16, Panic: true},
	)
	restore := faults.Activate(in)
	stop := make(chan struct{})
	var scrapes sync.WaitGroup
	scrapes.Add(1)
	go func() {
		defer scrapes.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			rawMetrics(t, c)
		}
	}()
	var flows sync.WaitGroup
	for i := 0; i < 4; i++ {
		flows.Add(1)
		go func() {
			defer flows.Done()
			chaosFlow(t, c)
		}()
	}
	flows.Wait()
	close(stop)
	scrapes.Wait()
	restore()

	if in.Fired(faults.MergePair) == 0 && in.Fired(faults.BudgetAcquire) == 0 {
		t.Skip("no panic fired; storm tested nothing this run")
	}
	fams := rawMetrics(t, c)
	mf := fams["questprod_panics_recovered_total"]
	if mf == nil {
		t.Fatal("questprod_panics_recovered_total missing after storm")
	}
}
