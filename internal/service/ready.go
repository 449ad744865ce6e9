package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"questpro/internal/api"
)

// ReadyGate is the startup-readiness front of a questprod process. The
// listener comes up immediately — liveness probes and supervisors see the
// process — but every API route answers 503 + Retry-After until the
// registry finishes restoring its durable sessions (snapshot decode and
// dialogue resumption can take real time on a large -data-dir). The qpgate gateway
// probes GET /readyz and holds traffic for a backend until it flips, so a
// restarting shard is never asked about sessions it has not re-loaded yet.
//
//	/healthz  -> 200 always (liveness: the process is up)
//	/readyz   -> 503 until Ready, then the real mux's 200
//	API       -> 503 + api.Error{code:"unavailable"} until Ready
//
// Ready swaps the real handler in atomically; after the swap the gate adds
// one atomic load per request.
type ReadyGate struct {
	handler    atomic.Pointer[http.Handler]
	retryAfter time.Duration
}

// NewReadyGate builds a gate that hints Retry-After retryAfter (rounded up
// to at least one second) on not-ready responses.
func NewReadyGate(retryAfter time.Duration) *ReadyGate {
	return &ReadyGate{retryAfter: retryAfter}
}

// Ready installs the real handler; every subsequent request flows through
// it. Call once, after the registry (and its restore) is constructed.
func (g *ReadyGate) Ready(h http.Handler) {
	g.handler.Store(&h)
}

// IsReady reports whether the real handler has been installed.
func (g *ReadyGate) IsReady() bool { return g.handler.Load() != nil }

func (g *ReadyGate) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if h := g.handler.Load(); h != nil {
		(*h).ServeHTTP(w, r)
		return
	}
	if r.URL.Path == "/healthz" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
		return
	}
	secs := retryAfterSeconds(g.retryAfter)
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	w.WriteHeader(http.StatusServiceUnavailable)
	_ = json.NewEncoder(w).Encode(&api.Error{
		Code:          api.CodeUnavailable,
		Message:       "service: starting: restoring durable sessions",
		RetryAfterSec: secs,
	})
}
