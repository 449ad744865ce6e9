package gateway

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"questpro/internal/api"
	qpclient "questpro/internal/client"
	"questpro/internal/ntriples"
	"questpro/internal/paperfix"
	"questpro/internal/service"
)

// backendFixture is one in-process questprod backend: a real service
// registry behind a real HTTP listener, plus a readiness switch the tests
// flip to simulate a restoring or dead shard.
type backendFixture struct {
	ts    *httptest.Server
	reg   *service.Registry
	ready atomic.Bool
}

// newBackendFixture starts an in-process backend. maxSessions <= 0 means
// the service default.
func newBackendFixture(t *testing.T, maxSessions int) *backendFixture {
	t.Helper()
	f := &backendFixture{}
	f.reg = service.NewRegistry(service.Config{MaxSessions: maxSessions})
	t.Cleanup(f.reg.Close)
	real := service.NewServer(f.reg)
	f.ready.Store(true)
	f.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if f.ready.Load() {
			real.ServeHTTP(w, r)
			return
		}
		// Mimic a questprod mid-restore: ReadyGate semantics.
		if r.URL.Path == "/healthz" {
			fmt.Fprintln(w, "ok")
			return
		}
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(http.StatusServiceUnavailable)
		json.NewEncoder(w).Encode(&api.Error{Code: api.CodeUnavailable, Message: "restoring", RetryAfterSec: 1})
	}))
	t.Cleanup(f.ts.Close)
	return f
}

// newTestGateway assembles a fleet + gateway over the fixtures with fast
// probing, seeds the states synchronously, and serves the gateway on its
// own listener.
func newTestGateway(t *testing.T, cfg Config, fixtures ...*backendFixture) (*Gateway, *httptest.Server) {
	t.Helper()
	urls := make([]string, len(fixtures))
	for i, f := range fixtures {
		urls[i] = f.ts.URL
	}
	fleet, err := NewFleet(urls, FleetConfig{ProbeInterval: 20 * time.Millisecond, ProbeTimeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	fleet.ProbeAll(context.Background())
	fleet.Start()
	t.Cleanup(fleet.Close)
	gw := New(fleet, cfg)
	ts := httptest.NewServer(gw)
	t.Cleanup(ts.Close)
	return gw, ts
}

func gatewayClient(base string) *qpclient.Client {
	return qpclient.New(qpclient.Config{
		BaseURL:        base,
		MaxRetries:     3,
		BaseDelay:      10 * time.Millisecond,
		MaxDelay:       200 * time.Millisecond,
		AttemptTimeout: 30 * time.Second,
		Seed:           1,
	})
}

func mustGet(t *testing.T, base, path string) (int, http.Header, []byte) {
	t.Helper()
	resp, err := http.Get(base + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: reading body: %v", path, err)
	}
	return resp.StatusCode, resp.Header, body
}

// TestGatewayCreateAffinityAndWireParity drives the full dialogue protocol
// through the gateway against a 3-backend fleet and pins the two load-
// bearing properties: (1) the session lands on the ring owner of its
// minted id — exactly one backend holds it, and it is the one the ring
// names; (2) proxied responses are byte-identical to asking the owning
// backend directly (wire parity: the gateway adds routing, not dialect).
func TestGatewayCreateAffinityAndWireParity(t *testing.T) {
	fixtures := []*backendFixture{
		newBackendFixture(t, 0), newBackendFixture(t, 0), newBackendFixture(t, 0),
	}
	gw, ts := newTestGateway(t, Config{}, fixtures...)
	cl := gatewayClient(ts.URL)
	ctx := context.Background()

	onto := ntriples.Format(paperfix.Ontology())
	id, err := cl.CreateSession(ctx, onto, nil)
	if err != nil {
		t.Fatalf("create via gateway: %v", err)
	}
	if !service.ValidSessionID(id) {
		t.Fatalf("gateway minted malformed session id %q", id)
	}

	// Exactly the ring owner holds the session.
	owner := gw.Fleet().Owner(id)
	for i, f := range fixtures {
		code, _, _ := mustGet(t, f.ts.URL, "/v1/sessions/"+id+"/stats")
		wantOwner := NormalizeBackendURL0(t, f.ts.URL) == owner.ID
		if wantOwner && code != http.StatusOK {
			t.Fatalf("ring owner (backend %d) answered %d for the session it should hold", i, code)
		}
		if !wantOwner && code != http.StatusNotFound {
			t.Fatalf("non-owner backend %d answered %d, want 404 (session must live on exactly one shard)", i, code)
		}
	}

	// Drive examples + inference + a feedback start through the gateway.
	if err := cl.SetExamples(ctx, id, wireExamples()); err != nil {
		t.Fatalf("examples via gateway: %v", err)
	}
	inf, err := cl.Infer(ctx, id, "topk", 0)
	if err != nil {
		t.Fatalf("infer via gateway: %v", err)
	}
	if inf.SPARQL == "" {
		t.Fatal("infer via gateway returned no query")
	}
	if _, err := cl.StartFeedback(ctx, id, 0); err != nil {
		t.Fatalf("feedback via gateway: %v", err)
	}

	// Wire parity on idempotent reads: stats and the pending question must
	// come back byte-identical whether asked via the gateway or directly.
	for _, path := range []string{
		"/v1/sessions/" + id + "/stats",
		"/v1/sessions/" + id + "/feedback/pending",
	} {
		viaCode, _, viaBody := mustGet(t, ts.URL, path)
		dirCode, _, dirBody := mustGet(t, owner.ID, path)
		if viaCode != dirCode || string(viaBody) != string(dirBody) {
			t.Fatalf("GET %s diverges via gateway:\n gateway (%d): %s\n direct  (%d): %s",
				path, viaCode, viaBody, dirCode, dirBody)
		}
	}
}

// NormalizeBackendURL0 is NormalizeBackendURL with the error turned into a
// test failure.
func NormalizeBackendURL0(t *testing.T, raw string) string {
	t.Helper()
	id, err := NormalizeBackendURL(raw)
	if err != nil {
		t.Fatal(err)
	}
	return id
}

func wireExamples() []api.Example {
	o := paperfix.Ontology()
	var exs []api.Example
	for _, e := range paperfix.Explanations(o) {
		exs = append(exs, api.Example{
			Triples:       ntriples.Format(e.Graph),
			Distinguished: e.DistinguishedValue(),
		})
	}
	return exs
}

// TestGatewayRoutingSurvivesGatewayRestart: a second gateway built from
// the same backend set (listed in a different order) routes every
// existing session to the backend that holds it — there is no routing
// table to lose.
func TestGatewayRoutingSurvivesGatewayRestart(t *testing.T) {
	fixtures := []*backendFixture{
		newBackendFixture(t, 0), newBackendFixture(t, 0), newBackendFixture(t, 0),
	}
	gw1, ts1 := newTestGateway(t, Config{}, fixtures...)
	cl := gatewayClient(ts1.URL)
	ctx := context.Background()

	onto := `<a> <p> <b> .`
	ids := make([]string, 0, 8)
	for i := 0; i < 8; i++ {
		id, err := cl.CreateSession(ctx, onto, nil)
		if err != nil {
			t.Fatalf("create %d: %v", i, err)
		}
		ids = append(ids, id)
	}

	// "Restart": a brand-new fleet + gateway, backends listed reversed.
	reversed := []*backendFixture{fixtures[2], fixtures[1], fixtures[0]}
	gw2, ts2 := newTestGateway(t, Config{}, reversed...)

	for _, id := range ids {
		if a, b := gw1.Fleet().Owner(id).ID, gw2.Fleet().Owner(id).ID; a != b {
			t.Fatalf("session %s owned by %s before restart, %s after", id, a, b)
		}
		code, _, body := mustGet(t, ts2.URL, "/v1/sessions/"+id+"/stats")
		if code != http.StatusOK {
			t.Fatalf("restarted gateway lost session %s: %d %s", id, code, body)
		}
	}
}

// TestGatewayShedWhenBackendDown: a request owned by an unreachable shard
// is shed immediately with 503 + Retry-After and the uniform api.Error
// envelope; sessions owned by live shards keep working.
func TestGatewayShedWhenBackendDown(t *testing.T) {
	alive := newBackendFixture(t, 0)
	dead := newBackendFixture(t, 0)
	gw, ts := newTestGateway(t, Config{RetryAfter: 2 * time.Second}, alive, dead)

	// Sessions on the live shard first (while both are up).
	cl := gatewayClient(ts.URL)
	aliveID, deadID := "", ""
	for i := 0; aliveID == "" || deadID == ""; i++ {
		if i > 200 {
			t.Fatal("could not land sessions on both shards in 200 creates")
		}
		id, err := cl.CreateSession(context.Background(), `<a> <p> <b> .`, nil)
		if err != nil {
			t.Fatalf("create: %v", err)
		}
		if gw.Fleet().Owner(id).ID == NormalizeBackendURL0(t, dead.ts.URL) {
			deadID = id
		} else {
			aliveID = id
		}
	}

	// Kill the shard. The prober (20ms interval) flips it to Down.
	dead.ts.Close()
	deadline := time.Now().Add(5 * time.Second)
	for gw.Fleet().Owner(deadID).State() != StateDown {
		if time.Now().After(deadline) {
			t.Fatal("prober never marked the killed backend down")
		}
		time.Sleep(10 * time.Millisecond)
	}

	code, hdr, body := mustGet(t, ts.URL, "/v1/sessions/"+deadID+"/stats")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("request for a down shard = %d, want 503; body %s", code, body)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("shed response carries no Retry-After")
	}
	var e api.Error
	if err := json.Unmarshal(body, &e); err != nil || e.Code != api.CodeUnavailable || e.RetryAfterSec < 1 {
		t.Fatalf("shed envelope = %s (err %v), want code %q with a retry hint", body, err, api.CodeUnavailable)
	}

	if code, _, _ := mustGet(t, ts.URL, "/v1/sessions/"+aliveID+"/stats"); code != http.StatusOK {
		t.Fatalf("live shard's session answered %d while sibling was down", code)
	}
}

// TestGatewayHoldsForRestoringBackend: a NotReady shard (up, /readyz 503 —
// questprod restoring its sessions) holds its requests rather than shedding,
// and releases them the moment readiness flips.
func TestGatewayHoldsForRestoringBackend(t *testing.T) {
	f := newBackendFixture(t, 0)
	gw, ts := newTestGateway(t, Config{NotReadyHold: 10 * time.Second}, f)
	cl := gatewayClient(ts.URL)

	id, err := cl.CreateSession(context.Background(), `<a> <p> <b> .`, nil)
	if err != nil {
		t.Fatal(err)
	}

	f.ready.Store(false)
	deadline := time.Now().Add(5 * time.Second)
	for gw.Fleet().Owner(id).State() != StateNotReady {
		if time.Now().After(deadline) {
			t.Fatal("prober never saw the backend turn not-ready")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Release readiness shortly after the request starts holding.
	flipAt := 150 * time.Millisecond
	go func() {
		time.Sleep(flipAt)
		f.ready.Store(true)
	}()
	start := time.Now()
	code, _, body := mustGet(t, ts.URL, "/v1/sessions/"+id+"/stats")
	if code != http.StatusOK {
		t.Fatalf("held request = %d %s, want 200 after readiness flip", code, body)
	}
	if held := time.Since(start); held < flipAt-20*time.Millisecond {
		t.Fatalf("request answered in %v, before the backend could have become ready (~%v)", held, flipAt)
	}

	// And with a hold shorter than the outage, the gateway sheds instead.
	// (A separate gateway instance: the hold is fixed at construction.)
	gw2, ts2 := newTestGateway(t, Config{NotReadyHold: 100 * time.Millisecond}, f)
	f.ready.Store(false)
	deadline = time.Now().Add(5 * time.Second)
	for gw2.Fleet().Owner(id).State() != StateNotReady {
		if time.Now().After(deadline) {
			t.Fatal("second gateway's prober never saw the backend turn not-ready")
		}
		time.Sleep(10 * time.Millisecond)
	}
	code, hdr, body := mustGet(t, ts2.URL, "/v1/sessions/"+id+"/stats")
	if code != http.StatusServiceUnavailable || hdr.Get("Retry-After") == "" {
		t.Fatalf("overstayed hold = %d (Retry-After %q) %s, want 503 + Retry-After", code, hdr.Get("Retry-After"), body)
	}
	f.ready.Store(true)
}

// TestGatewayCreateOverloadRemint: the id-minting loop pools fleet
// capacity — when the first-drawn owner is at its session cap, the create
// re-mints toward shards with free slots, and only a fleet-wide full
// answers 503/overloaded to the client.
func TestGatewayCreateOverloadRemint(t *testing.T) {
	// Two tiny shards: 2 slots total.
	a := newBackendFixture(t, 1)
	b := newBackendFixture(t, 1)
	_, ts := newTestGateway(t, Config{}, a, b)

	onto := `<a> <p> <b> .`
	post := func() (int, []byte) {
		resp, err := http.Post(ts.URL+"/v1/sessions", "application/json",
			strings.NewReader(`{"ontology":"`+onto+`"}`))
		if err != nil {
			t.Fatalf("create: %v", err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, body
	}

	for i := 0; i < 2; i++ {
		if code, body := post(); code != http.StatusCreated {
			t.Fatalf("create %d with fleet capacity free = %d %s", i, code, body)
		}
	}
	code, body := post()
	if code != http.StatusServiceUnavailable {
		t.Fatalf("create beyond fleet capacity = %d %s, want 503", code, body)
	}
	var e api.Error
	if err := json.Unmarshal(body, &e); err != nil || e.Code != api.CodeOverloaded {
		t.Fatalf("fleet-full envelope = %s (err %v), want code %q (the backend's own shed, relayed)",
			body, err, api.CodeOverloaded)
	}
}

// TestSchemaGatewayErrorEnvelope is part of the `make api-check` gate: the
// gateway's OWN error responses (shed, oversized body) must speak the same
// versioned api.Error envelope as the backends, with documented codes —
// a client cannot tell which layer refused it, so both layers must refuse
// identically.
func TestSchemaGatewayErrorEnvelope(t *testing.T) {
	f := newBackendFixture(t, 0)
	gw, ts := newTestGateway(t, Config{MaxBody: 1024, RetryAfter: 3 * time.Second}, f)

	// Shed envelope (backend down).
	f.ts.Close()
	deadline := time.Now().Add(5 * time.Second)
	for gw.Fleet().Backends()[0].State() != StateDown {
		if time.Now().After(deadline) {
			t.Fatal("prober never marked the backend down")
		}
		time.Sleep(10 * time.Millisecond)
	}
	code, hdr, body := mustGet(t, ts.URL, "/v1/sessions/0123456789abcdef0123456789abcdef/stats")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("shed = %d, want 503", code)
	}
	var raw map[string]any
	if err := json.Unmarshal(body, &raw); err != nil {
		t.Fatalf("shed body is not JSON: %v\n%s", err, body)
	}
	// The envelope's wire shape: exactly the api.Error fields.
	for k := range raw {
		switch k {
		case "code", "error", "retry_after_sec":
		default:
			t.Fatalf("shed envelope carries undocumented field %q: %s", k, body)
		}
	}
	var e api.Error
	if err := json.Unmarshal(body, &e); err != nil || e.Code != api.CodeUnavailable {
		t.Fatalf("shed envelope = %s, want code %q", body, api.CodeUnavailable)
	}
	if hdr.Get("Retry-After") == "" || e.RetryAfterSec < 1 {
		t.Fatalf("shed envelope lacks retry hints: header %q, body %s", hdr.Get("Retry-After"), body)
	}

	// Oversized-body envelope.
	resp, err := http.Post(ts.URL+"/v1/sessions", "application/json",
		strings.NewReader(`{"ontology":"`+strings.Repeat("x", 4096)+`"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ = io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized create = %d %s, want 413", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &e); err != nil || e.Code != api.CodeTooLarge {
		t.Fatalf("413 envelope = %s (err %v), want code %q", body, err, api.CodeTooLarge)
	}
}
