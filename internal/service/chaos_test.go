package service_test

// The chaos harness: drive the full HTTP service while the faults package
// injects errors and panics at every registered point, under -race (see
// `make chaos`). The invariants are the service's fault model (DESIGN.md
// §8): the process never dies, a failure poisons at most the operation
// that hit it, sessions recover, and once the faults clear a full
// end-to-end session works against the same server.

import (
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"questpro/internal/api"
	qpclient "questpro/internal/client"
	"questpro/internal/eval"
	"questpro/internal/faults"
	"questpro/internal/ntriples"
	"questpro/internal/paperfix"
	"questpro/internal/query"
	"questpro/internal/service"
	"questpro/internal/store"
)

// paperfixWant is the oracle's intended result set (Union(Q3, Q4)), the
// same target runSessionE2E drives toward.
func paperfixWant(t *testing.T) map[string]bool {
	t.Helper()
	o := paperfix.Ontology()
	vals, err := eval.New(o).Results(bg, query.NewUnion(paperfix.Q3(), paperfix.Q4()))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{}
	for _, v := range vals {
		want[v] = true
	}
	return want
}

// chaosFlow drives one best-effort session lifecycle — create, examples,
// top-k inference, feedback with a few answers, delete — tolerating any
// well-formed error response. It returns without judging outcomes: under
// injected faults any step may fail; the caller asserts on server-level
// invariants instead.
func chaosFlow(t *testing.T, c *client) {
	t.Helper()
	status, resp := c.post("/v1/sessions", map[string]any{
		"ontology": ntriples.Format(paperfix.Ontology()),
	})
	if status != http.StatusCreated {
		return // e.g. session.snapshot fault at id minting: a clean 500
	}
	base := "/v1/sessions/" + resp["session_id"].(string)
	defer c.do(http.MethodDelete, base, nil)
	if status, _ = c.post(base+"/examples", paperfixExamples()); status != http.StatusOK {
		return
	}
	if status, _ = c.post(base+"/infer", map[string]any{"mode": "topk"}); status != http.StatusOK {
		return
	}
	status, resp = c.post(base+"/feedback", nil)
	for i := 0; status == http.StatusOK && i < 8; i++ {
		if done, _ := resp["done"].(bool); done {
			break
		}
		status, resp = c.post(base+"/feedback/answer", map[string]any{"include": false})
	}
}

// TestChaosEveryInjectionPoint exercises each registered fault point in
// turn with injected errors. For every point: the fault actually fires
// during a session lifecycle, the server keeps answering /healthz while
// poisoned, and after the injector is removed a complete end-to-end
// session (feedback dialogue included) succeeds against the same server.
func TestChaosEveryInjectionPoint(t *testing.T) {
	c := newTestServer(t, service.Config{})
	want := paperfixWant(t)

	for _, p := range faults.Points() {
		in := faults.NewInjector(42, faults.Rule{Point: p, FirstN: 3})
		restore := faults.Activate(in)
		chaosFlow(t, c)
		if status, _ := c.do(http.MethodGet, "/healthz", nil); status != http.StatusOK {
			restore()
			t.Fatalf("point %s: healthz %d while faults active", p, status)
		}
		restore()
		if in.Fired(p) == 0 {
			t.Errorf("point %s never fired during the session lifecycle", p)
		}
		if err := runSessionE2E(t, c, want); err != nil {
			t.Fatalf("point %s: clean E2E after faults cleared: %v", p, err)
		}
	}
}

// TestChaosPanicStorm injects panics (not errors) at the merge engine and
// at budget admission — the two seams covered by different recovery
// boundaries (in-goroutine worker recovery and the session's recoverOp) —
// while several sessions run concurrently. The process survives, every
// response is well-formed HTTP, and the server serves a clean E2E after.
func TestChaosPanicStorm(t *testing.T) {
	c := newTestServer(t, service.Config{})
	want := paperfixWant(t)

	in := faults.NewInjector(7,
		faults.Rule{Point: faults.MergePair, Prob: 0.2, MaxFires: 64, Panic: true},
		faults.Rule{Point: faults.BudgetAcquire, Prob: 0.2, MaxFires: 16, Panic: true},
	)
	restore := faults.Activate(in)
	const flows = 6
	var wg sync.WaitGroup
	for i := 0; i < flows; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			chaosFlow(t, c)
		}()
	}
	wg.Wait()
	if status, _ := c.do(http.MethodGet, "/healthz", nil); status != http.StatusOK {
		restore()
		t.Fatalf("healthz %d during panic storm", status)
	}
	restore()

	if in.Fired(faults.MergePair) == 0 && in.Fired(faults.BudgetAcquire) == 0 {
		t.Fatal("no panic was ever injected; the storm tested nothing")
	}
	if err := runSessionE2E(t, c, want); err != nil {
		t.Fatalf("clean E2E after panic storm: %v", err)
	}
}

// chaosStoreServer builds a persistence-enabled registry + HTTP server over
// dir, returning both (the registry for metrics, the client for traffic).
// The registry is NOT auto-closed — restart tests close it themselves.
func chaosStoreServer(t *testing.T, dir string) (*service.Registry, *client) {
	t.Helper()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	reg := service.NewRegistry(service.Config{Store: st})
	ts := httptest.NewServer(service.NewServer(reg))
	t.Cleanup(ts.Close)
	return reg, &client{t: t, base: ts.URL, http: ts.Client()}
}

// TestChaosSnapshotSaveFails: with every store write failing, mutating
// operations still succeed (availability first — the session is left dirty
// and the failures counted), the server stays healthy, and once the fault
// clears the next operation's persist retry writes the state back.
func TestChaosSnapshotSaveFails(t *testing.T) {
	dir := t.TempDir()
	reg, c := chaosStoreServer(t, dir)
	t.Cleanup(reg.Close)

	status, resp := c.post("/v1/sessions", map[string]any{
		"ontology": ntriples.Format(paperfix.Ontology()),
	})
	if status != http.StatusCreated {
		t.Fatalf("create: %d (%v)", status, resp)
	}
	base := "/v1/sessions/" + resp["session_id"].(string)
	if status, _ = c.post(base+"/examples", paperfixExamples()); status != http.StatusOK {
		t.Fatalf("examples: %d", status)
	}
	writesBefore := reg.Metrics().SnapshotWrites

	// Activated after creation: the id mint and the first snapshots succeed,
	// every store operation from here fails.
	in := faults.NewInjector(5, faults.Rule{Point: faults.SessionSnapshot, FirstN: 1 << 20})
	restore := faults.Activate(in)
	if status, _ = c.post(base+"/infer", map[string]any{"mode": "topk"}); status != http.StatusOK {
		restore()
		t.Fatalf("infer under persist faults: %d, want 200 (availability first)", status)
	}
	if status, _ = c.post(base+"/feedback", nil); status != http.StatusOK {
		restore()
		t.Fatalf("feedback start under persist faults: %d", status)
	}
	if status, _ := c.do(http.MethodGet, "/healthz", nil); status != http.StatusOK {
		restore()
		t.Fatalf("healthz %d while persistence down", status)
	}
	restore()
	if in.Fired(faults.SessionSnapshot) == 0 {
		t.Fatal("no persist fault ever fired")
	}
	if m := reg.Metrics(); m.SnapshotErrors == 0 {
		t.Fatalf("failed persists not counted: %+v", m)
	}

	// The next mutating operation retries the flush and succeeds.
	if status, _ = c.post(base+"/feedback/answer", map[string]any{"include": false}); status != http.StatusOK {
		t.Fatalf("answer after faults cleared: %d", status)
	}
	if m := reg.Metrics(); m.SnapshotWrites <= writesBefore {
		t.Fatalf("persist retry never landed: writes %d -> %d", writesBefore, m.SnapshotWrites)
	}
	if err := runSessionE2E(t, c, paperfixWant(t)); err != nil {
		t.Fatalf("clean E2E after persist faults: %v", err)
	}
}

// TestChaosSnapshotLoadFails: a store whose loads fail during startup
// restore skips the unreadable session — leaving its file in place for the
// next restart — and the registry comes up healthy; a later restart without
// the fault restores the session intact.
func TestChaosSnapshotLoadFails(t *testing.T) {
	dir := t.TempDir()
	reg1, c1 := chaosStoreServer(t, dir)
	status, resp := c1.post("/v1/sessions", map[string]any{
		"ontology": ntriples.Format(paperfix.Ontology()),
	})
	if status != http.StatusCreated {
		t.Fatalf("create: %d (%v)", status, resp)
	}
	id := resp["session_id"].(string)
	if status, _ = c1.post("/v1/sessions/"+id+"/examples", paperfixExamples()); status != http.StatusOK {
		t.Fatalf("examples: %d", status)
	}
	reg1.Close()

	in := faults.NewInjector(6, faults.Rule{Point: faults.SessionSnapshot, FirstN: 1 << 20})
	restore := faults.Activate(in)
	reg2, c2 := chaosStoreServer(t, dir)
	restore()
	if in.Fired(faults.SessionSnapshot) == 0 {
		reg2.Close()
		t.Fatal("restore never hit the injected load fault")
	}
	if n := reg2.Len(); n != 0 {
		reg2.Close()
		t.Fatalf("%d sessions restored through a failing store", n)
	}
	if m := reg2.Metrics(); m.SnapshotErrors == 0 {
		reg2.Close()
		t.Fatalf("load failure not counted: %+v", m)
	}
	// The degraded registry still serves new sessions.
	if err := runSessionE2E(t, c2, paperfixWant(t)); err != nil {
		reg2.Close()
		t.Fatalf("E2E against degraded registry: %v", err)
	}
	reg2.Close()

	// The snapshot was skipped, not condemned: the next restart restores it.
	reg3, _ := chaosStoreServer(t, dir)
	t.Cleanup(reg3.Close)
	if _, ok := reg3.Get(id); !ok {
		t.Fatal("session not restored once the load fault cleared")
	}
}

// TestChaosPanicInCodec: a panic inside the snapshot encode path — which
// runs on the operation's deferred persist, inside the session mutex — is
// caught by the operation's recovery boundary: the request gets a clean
// 500, the counter ticks, and the session keeps working.
func TestChaosPanicInCodec(t *testing.T) {
	dir := t.TempDir()
	reg, c := chaosStoreServer(t, dir)
	t.Cleanup(reg.Close)

	status, resp := c.post("/v1/sessions", map[string]any{
		"ontology": ntriples.Format(paperfix.Ontology()),
	})
	if status != http.StatusCreated {
		t.Fatalf("create: %d (%v)", status, resp)
	}
	base := "/v1/sessions/" + resp["session_id"].(string)
	if status, _ = c.post(base+"/examples", paperfixExamples()); status != http.StatusOK {
		t.Fatalf("examples: %d", status)
	}

	// The persist path hits faults.SessionSnapshot twice per op: the codec
	// encode, then the store save. OnNth selects the encode.
	in := faults.NewInjector(8, faults.Rule{Point: faults.SessionSnapshot, OnNth: 1, Panic: true})
	restore := faults.Activate(in)
	status, resp = c.post(base+"/infer", map[string]any{"mode": "topk"})
	restore()
	if status != http.StatusInternalServerError {
		t.Fatalf("infer with codec panic: %d (%v), want 500", status, resp)
	}
	if in.Fired(faults.SessionSnapshot) != 1 {
		t.Fatalf("codec panic fired %d times, want 1", in.Fired(faults.SessionSnapshot))
	}
	if m := reg.Metrics(); m.PanicsRecovered == 0 {
		t.Fatalf("codec panic not recovered/counted: %+v", m)
	}
	if status, _ := c.do(http.MethodGet, "/healthz", nil); status != http.StatusOK {
		t.Fatalf("healthz %d after codec panic", status)
	}
	// The poisoned call left the session usable; the retry persists cleanly.
	if status, _ = c.post(base+"/infer", map[string]any{"mode": "topk"}); status != http.StatusOK {
		t.Fatalf("infer retry after codec panic: %d", status)
	}
}

// TestChaosShedAndRetry saturates the worker budget and lets the
// retry-aware client ride it out: the first attempts are shed with 429,
// the client backs off honoring Retry-After, and once the budget frees up
// the inference completes.
func TestChaosShedAndRetry(t *testing.T) {
	reg := service.NewRegistry(service.Config{
		TotalWorkers:  2,
		AdmissionWait: 20 * time.Millisecond,
	})
	t.Cleanup(reg.Close)
	ts := httptest.NewServer(service.NewServer(reg))
	t.Cleanup(ts.Close)

	cl := qpclient.New(qpclient.Config{
		BaseURL:    ts.URL,
		MaxRetries: 8,
		BaseDelay:  50 * time.Millisecond,
		MaxDelay:   2 * time.Second,
		Seed:       3,
		HTTPClient: ts.Client(),
	})
	id, err := cl.CreateSession(bg, ntriples.Format(paperfix.Ontology()), nil)
	if err != nil {
		t.Fatal(err)
	}
	o := paperfix.Ontology()
	var exs []api.Example
	for _, e := range paperfix.Explanations(o) {
		exs = append(exs, api.Example{
			Triples:       ntriples.Format(e.Graph),
			Distinguished: e.DistinguishedValue(),
		})
	}
	if err := cl.SetExamples(bg, id, exs); err != nil {
		t.Fatal(err)
	}

	// Hold the budget long enough that the client is shed at least twice
	// (the Retry-After floor is 1s, so retries land at ~1s and ~2s) before
	// the capacity frees up and the third attempt goes through.
	held, err := reg.Budget().Acquire(bg, reg.Budget().Size())
	if err != nil {
		t.Fatal(err)
	}
	release := time.AfterFunc(1500*time.Millisecond, func() { reg.Budget().Release(held) })
	defer release.Stop()

	res, err := cl.Infer(bg, id, "union", 0)
	if err != nil {
		t.Fatalf("infer through saturation: %v (retries %d)", err, cl.Retries())
	}
	if res.SPARQL == "" {
		t.Fatal("infer through saturation returned no query")
	}
	if cl.Retries() < 2 {
		t.Fatalf("client retried %d times, want >= 2 (shed at least twice)", cl.Retries())
	}
	if m := reg.Metrics(); m.LoadShed < 2 {
		t.Fatalf("registry shed count = %d, want >= 2", m.LoadShed)
	}
}
