package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"questpro/internal/service"
)

// runAgainst drives the first dialogue of in through an in-process
// questprod handler and returns the run's end-to-end result.
func runAgainst(t *testing.T, in *Inputs, cs controlSet) *result {
	t.Helper()
	reg := service.NewRegistry(service.Config{DisableTracing: true})
	srv := httptest.NewServer(service.NewServer(reg))
	defer func() {
		srv.Close()
		reg.Close()
	}()
	hc, rt := newHTTPClient(1)
	m := &measurement{rec: &recorder{}, rt: rt}
	start := time.Now()
	// A deadline already past stops the loop after the first dialogue.
	if err := runAnalyst(context.Background(), in, cs, start, newClient(srv.URL, hc, m.rec, 1)); err != nil {
		t.Fatal(err)
	}
	m.wall = time.Since(start)
	res, _ := endToEndResult(m, cs, []float64{1})
	return res
}

func TestTamperedControlFailsRun(t *testing.T) {
	ctx := context.Background()
	in, err := Generate(wlDurable, 1)
	if err != nil {
		t.Fatal(err)
	}
	cs, err := (&controlRun{}).controls(ctx, in)
	if err != nil {
		t.Fatal(err)
	}
	// Keep one dialogue that asks a question, so both the question
	// sequence and the final query can be tampered with.
	for i := range cs {
		if len(cs[i][0].Questions) > 0 {
			in.Sessions, cs = in.Sessions[i:i+1], cs[i:i+1]
			break
		}
	}
	if len(cs[0][0].Questions) == 0 {
		t.Fatal("no dialogue of the pool asks a question")
	}
	if res := runAgainst(t, in, cs); !res.Correct || res.Failed != 0 {
		t.Fatalf("untampered control: correct=%v failed=%d; want a clean run", res.Correct, res.Failed)
	}

	for name, tamper := range map[string]func(*Transcript){
		"question": func(tr *Transcript) { tr.Questions[0] += "-tampered" },
		"sparql":   func(tr *Transcript) { tr.SPARQL += " # tampered" },
		"length":   func(tr *Transcript) { tr.Questions = append(tr.Questions, "extra") },
	} {
		orig := cs[0][0]
		tr := Transcript{Questions: append([]string(nil), orig.Questions...), SPARQL: orig.SPARQL}
		tamper(&tr)
		cs[0][0] = tr
		res := runAgainst(t, in, cs)
		cs[0][0] = orig
		if res.Correct || res.Failed != 1 {
			t.Errorf("%s tampered: correct=%v failed=%d; want an incorrect run with one failure", name, res.Correct, res.Failed)
		}
	}
}

// TestRetriedRefusalIsCounted checks the failure accounting: a 429 the
// client retries away is not a failed request but shows as an extra
// attempt, and a request that finally fails misses every latency limit.
func TestRetriedRefusalIsCounted(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.Method == http.MethodPost && calls.Add(1) == 1:
			w.Header().Set("Retry-After", "0")
			http.Error(w, `{"code":"overloaded","error":"busy"}`, http.StatusTooManyRequests)
		case r.Method == http.MethodPost:
			w.WriteHeader(http.StatusCreated)
			_, _ = w.Write([]byte(`{"session_id":"s1"}`))
		default:
			http.Error(w, `{"code":"not_found","error":"gone"}`, http.StatusNotFound)
		}
	}))
	defer srv.Close()
	hc, rt := newHTTPClient(1)
	rec := &recorder{}
	c := newClient(srv.URL, hc, rec, 1)
	ctx := context.Background()
	if _, err := c.create(ctx, "a b c ."); err != nil {
		t.Fatalf("create after one refusal: %v", err)
	}
	if err := c.delete(ctx, "s1"); err == nil {
		t.Fatal("delete of an unknown session succeeded")
	}
	if got := rt.attempts.Load(); got != 3 {
		t.Errorf("attempts = %d, want 3 (refused create, retried create, delete)", got)
	}
	if got := rt.refused.Load(); got != 1 {
		t.Errorf("refusals = %d, want 1", got)
	}
	if rec.failed != 1 {
		t.Errorf("failed requests = %d, want 1 (the delete)", rec.failed)
	}
	if got := quantile(rec.latencies("create", "delete"), 1); got < 1e300 {
		t.Errorf("slowest latency = %v; a failed request must miss every limit", got)
	}
}
