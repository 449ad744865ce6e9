// Package service hosts concurrent inference sessions behind a small
// HTTP/JSON API (served by cmd/questprod). A session owns one ontology,
// one example-set and the state of at most one feedback dialogue; the
// registry owns the sessions, evicts the idle ones after a TTL, and
// bounds the total number of inference workers across all sessions with
// one shared conc.Budget, so a burst of concurrent requests degrades to
// queueing instead of oversubscribing the machine.
package service

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"io"
	"log/slog"
	"sync"
	"time"

	"questpro/internal/conc"
	"questpro/internal/core"
	"questpro/internal/faults"
	"questpro/internal/graph"
	"questpro/internal/obs"
	"questpro/internal/qerr"
	"questpro/internal/store"
)

// Config sizes a registry. The zero value selects every default.
type Config struct {
	// TotalWorkers bounds the inference workers in flight across all
	// sessions; it resolves through conc.Workers (<= 0 means GOMAXPROCS).
	TotalWorkers int

	// SessionTTL is how long an idle session survives before the janitor
	// evicts it. <= 0 selects DefaultSessionTTL.
	SessionTTL time.Duration

	// MaxSessions caps live sessions; Create fails beyond it. <= 0 selects
	// DefaultMaxSessions.
	MaxSessions int

	// JanitorInterval is how often the janitor scans for expired sessions.
	// <= 0 selects SessionTTL / 4 (clamped to at least a second).
	JanitorInterval time.Duration

	// AdmissionWait bounds how long an inference request may queue on the
	// shared worker budget before the server sheds it with 429 (load
	// shedding; see conc.Budget.AcquireWithin). 0 selects
	// DefaultAdmissionWait; negative waits without bound — the pre-shedding
	// behavior.
	AdmissionWait time.Duration

	// RetryAfter is the hint sent in the Retry-After header of shed (429)
	// responses. <= 0 selects DefaultRetryAfter.
	RetryAfter time.Duration

	// Logger receives the server's structured logs (one access-log record
	// per request, plus session lifecycle events). nil discards them.
	Logger *slog.Logger

	// TraceLog, when non-nil, receives one JSON line per finished root span
	// (the trace journal; questprod wires -trace-log here). Writes are
	// serialized by the tracer.
	TraceLog io.Writer

	// TraceRing caps how many finished operation traces each session
	// retains for GET /v1/sessions/{id}/trace (oldest evicted first).
	// <= 0 selects DefaultTraceRing.
	TraceRing int

	// DisableTracing leaves the global span gate alone, so sessions run
	// with nil spans (the library's zero-overhead path). The default is to
	// enable tracing for the process when the registry starts.
	DisableTracing bool

	// Store, when non-nil, enables durable session persistence (DESIGN.md
	// §12): every state-changing operation is snapshotted into it before
	// its response is written, NewRegistry restores the stored sessions
	// (resuming in-flight feedback dialogues), the TTL janitor deletes the
	// snapshots of the sessions it evicts, and Close flushes dirty
	// sessions. nil, the default, disables persistence entirely; the
	// session hot path then pays one nil check per operation.
	Store *store.Store
}

// Defaults for Config's zero fields.
const (
	DefaultSessionTTL    = 30 * time.Minute
	DefaultMaxSessions   = 1024
	DefaultAdmissionWait = 2 * time.Second
	DefaultRetryAfter    = time.Second
	DefaultTraceRing     = 8
)

func (c Config) withDefaults() Config {
	if c.SessionTTL <= 0 {
		c.SessionTTL = DefaultSessionTTL
	}
	if c.MaxSessions <= 0 {
		c.MaxSessions = DefaultMaxSessions
	}
	if c.JanitorInterval <= 0 {
		c.JanitorInterval = c.SessionTTL / 4
		if c.JanitorInterval < time.Second {
			c.JanitorInterval = time.Second
		}
	}
	if c.AdmissionWait == 0 {
		c.AdmissionWait = DefaultAdmissionWait
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = DefaultRetryAfter
	}
	if c.TraceRing <= 0 {
		c.TraceRing = DefaultTraceRing
	}
	return c
}

// Registry owns the live sessions. Construct with NewRegistry and release
// with Close; the zero value is not usable.
type Registry struct {
	cfg    Config
	budget *conc.Budget

	// Observability plumbing (immutable after NewRegistry): the structured
	// logger, the tracer that finishes root spans into histograms and the
	// optional JSONL journal, and the two latency-histogram families
	// rendered at /metrics.
	logger  *slog.Logger
	tracer  *obs.Tracer
	httpDur *obs.Family
	spanDur *obs.Family

	// ctx is the registry-scoped root context: every session context is a
	// child, so Close cancels all in-flight inference and feedback work.
	ctx    context.Context
	cancel context.CancelFunc

	janitorDone chan struct{}

	mu       sync.Mutex
	sessions map[string]*Session
	closed   bool

	// Aggregate counters over every inference ever run, including in
	// sessions since evicted. Guarded by mu.
	totals       core.CountersSnapshot
	peakParallel int
	inferTotal   int
	createdTotal int
	evictedTotal int

	// Fault-tolerance counters: panics converted to errors by a session's
	// recovery boundary, inference requests shed for load, and inferences
	// that returned a degraded (guard-exhausted) partial result. Guarded by
	// mu.
	panicsTotal   int
	shedTotal     int
	degradedTotal int

	// Durability counters (zero without a store). Guarded by mu.
	snapWritesTotal      int
	snapRestoresTotal    int
	snapQuarantinedTotal int
	snapErrorsTotal      int
}

// NewRegistry starts a registry (and its eviction janitor) sized by cfg.
// Unless cfg.DisableTracing is set it turns the process-wide span gate on
// — and never off: the gate is sticky because another registry (or a test)
// may be live in the same process, and an enabled gate without a root span
// installed still costs the library path only one atomic load.
func NewRegistry(cfg Config) *Registry {
	cfg = cfg.withDefaults()
	logger := cfg.Logger
	if logger == nil {
		logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	if !cfg.DisableTracing {
		obs.SetEnabled(true)
	}
	spanDur := obs.NewFamily("questprod_span_duration_seconds", "kind",
		"Trace span latency by span kind.")
	ctx, cancel := context.WithCancel(context.Background())
	r := &Registry{
		cfg:    cfg,
		budget: conc.NewBudget(cfg.TotalWorkers),
		logger: logger,
		tracer: obs.NewTracer(spanDur, cfg.TraceLog),
		httpDur: obs.NewFamily("questprod_http_request_duration_seconds", "endpoint",
			"HTTP request latency by endpoint."),
		spanDur:     spanDur,
		ctx:         ctx,
		cancel:      cancel,
		janitorDone: make(chan struct{}),
		sessions:    make(map[string]*Session),
	}
	// Restore persisted sessions before the janitor starts, so the first
	// eviction scan sees their persisted idle clocks instead of racing the
	// restore.
	if cfg.Store != nil {
		r.restoreAll()
	}
	go r.janitor()
	return r
}

// janitor periodically evicts sessions idle past the TTL.
func (r *Registry) janitor() {
	defer close(r.janitorDone)
	t := time.NewTicker(r.cfg.JanitorInterval)
	defer t.Stop()
	for {
		select {
		case <-r.ctx.Done():
			return
		case <-t.C:
			r.evictExpired(time.Now())
		}
	}
}

// evictExpired removes every session idle since before now-TTL. A session
// with an operation in flight is never expired, even when the operation —
// a long inference, or a request queued on the exhausted worker budget —
// outlives the TTL: idleness is measured from completed work (operations
// re-touch the clock when they finish). Split from the janitor loop so
// tests can drive it deterministically.
func (r *Registry) evictExpired(now time.Time) int {
	cutoff := now.Add(-r.cfg.SessionTTL)
	var expired []*Session
	r.mu.Lock()
	for id, s := range r.sessions {
		if s.busy() {
			continue
		}
		if s.lastUsed().Before(cutoff) {
			delete(r.sessions, id)
			expired = append(expired, s)
			r.evictedTotal++
		}
	}
	r.mu.Unlock()
	for _, s := range expired {
		s.close()
		r.deleteSnapshot(s.ID)
		r.logger.Info("session evicted", "session_id", s.ID, "reason", "ttl")
	}
	return len(expired)
}

// deleteSnapshot garbage-collects an evicted or deleted session's durable
// files, so the store never accumulates orphans for sessions that no
// longer exist.
func (r *Registry) deleteSnapshot(id string) {
	if r.cfg.Store == nil {
		return
	}
	if err := r.cfg.Store.Delete(id); err != nil {
		r.recordSnapshotError()
		r.logger.Warn("snapshot delete failed", "session_id", id, "error", err)
	}
}

// idRand is the entropy source behind session identifiers; a package
// variable so tests can exercise the failure path without breaking the
// process's crypto/rand.
var idRand io.Reader = rand.Reader

// newID returns a 128-bit random session identifier. An entropy failure —
// nearly impossible on a healthy host, but exactly the kind of "can't
// happen" that used to panic here — surfaces as a qerr.ErrInternal-matching
// error the HTTP layer maps to 500, keeping the server up. The
// faults.SessionSnapshot injection point fires first so the chaos harness
// can force this path.
func newID() (string, error) {
	if err := faults.Fire(faults.SessionSnapshot); err != nil {
		return "", fmt.Errorf("service: minting session id: %v: %w", err, qerr.ErrInternal)
	}
	var b [16]byte
	if _, err := io.ReadFull(idRand, b[:]); err != nil {
		return "", fmt.Errorf("service: reading random id: %v: %w", err, qerr.ErrInternal)
	}
	return hex.EncodeToString(b[:]), nil
}

// Create registers a session over the ontology with the given inference
// options (validated here, at the service boundary).
func (r *Registry) Create(onto *graph.Graph, opts core.Options) (*Session, error) {
	return r.CreateWithID("", onto, opts)
}

// ValidSessionID reports whether id has the canonical session-identifier
// shape: 32 lowercase hex characters (the encoding newID produces). The
// qpgate gateway mints ids client-side so consistent-hash affinity derives
// from the id; the format gate keeps externally minted ids in the same
// keyspace.
func ValidSessionID(id string) bool {
	if len(id) != 32 {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// CreateWithID registers a session under a caller-minted identifier (the
// gateway's shard-affinity path; see api.CreateSessionRequest.SessionID).
// An empty id mints one server-side. A full registry fails with an error
// matching qerr.ErrOverloaded, which the HTTP layer serves as 503 +
// Retry-After — capacity exhaustion is a retryable service condition, not
// a client mistake.
func (r *Registry) CreateWithID(id string, onto *graph.Graph, opts core.Options) (*Session, error) {
	if onto == nil || onto.NumNodes() == 0 {
		return nil, fmt.Errorf("service: empty ontology")
	}
	if err := opts.Validate(); err != nil {
		return nil, fmt.Errorf("service: %w", err)
	}
	if id == "" {
		var err error
		if id, err = newID(); err != nil {
			return nil, err
		}
	} else if !ValidSessionID(id) {
		return nil, fmt.Errorf("service: session id must be 32 lowercase hex characters")
	}
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil, fmt.Errorf("service: registry is closed")
	}
	if _, dup := r.sessions[id]; dup {
		r.mu.Unlock()
		return nil, fmt.Errorf("service: session %s already exists", id)
	}
	if len(r.sessions) >= r.cfg.MaxSessions {
		r.mu.Unlock()
		return nil, fmt.Errorf("service: session limit %d reached: %w", r.cfg.MaxSessions, qerr.ErrOverloaded)
	}
	s := newSession(r, id, onto, opts)
	r.sessions[s.ID] = s
	r.createdTotal++
	active := len(r.sessions)
	r.mu.Unlock()
	// Outside r.mu: the initial snapshot does disk I/O.
	s.persistInitial()
	r.logger.Info("session created", "session_id", s.ID, "sessions_active", active)
	return s, nil
}

// Get looks a session up and marks it used (resetting its TTL clock).
func (r *Registry) Get(id string) (*Session, bool) {
	r.mu.Lock()
	s, ok := r.sessions[id]
	r.mu.Unlock()
	if ok {
		s.touch()
	}
	return s, ok
}

// Delete evicts a session, canceling its in-flight work and removing its
// durable snapshot (an explicit delete means the client is done with it).
func (r *Registry) Delete(id string) bool {
	r.mu.Lock()
	s, ok := r.sessions[id]
	delete(r.sessions, id)
	r.mu.Unlock()
	if ok {
		s.close()
		r.deleteSnapshot(id)
	}
	return ok
}

// Len reports the number of live sessions.
func (r *Registry) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.sessions)
}

// Budget exposes the shared worker budget (used by tests and metrics).
func (r *Registry) Budget() *conc.Budget { return r.budget }

// Close cancels every session (stopping any feedback turn in progress),
// stops the janitor and waits for it to exit, so a server shutdown leaks
// nothing. With a store configured, every dirty session is
// flushed to it first — BEFORE the session is torn down, because teardown
// discards the dialogue state the flush must capture.
func (r *Registry) Close() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		<-r.janitorDone
		return
	}
	r.closed = true
	all := make([]*Session, 0, len(r.sessions))
	for id, s := range r.sessions {
		delete(r.sessions, id)
		all = append(all, s)
	}
	r.mu.Unlock()
	r.cancel()
	for _, s := range all {
		// The flush serializes behind any in-flight operation (which the
		// cancel above is aborting), so it captures the session's final
		// state, dialogue position included.
		s.flushToStore()
		s.close()
	}
	<-r.janitorDone
}

// recordInfer folds one inference run into the registry-wide totals.
func (r *Registry) recordInfer(st core.Stats) {
	r.mu.Lock()
	r.totals.Add(st.Counters())
	if st.PeakParallelism > r.peakParallel {
		r.peakParallel = st.PeakParallelism
	}
	r.inferTotal++
	if st.Degraded {
		r.degradedTotal++
	}
	r.mu.Unlock()
}

// recordPanic counts one panic converted to an error by a recovery boundary.
func (r *Registry) recordPanic() {
	r.mu.Lock()
	r.panicsTotal++
	r.mu.Unlock()
}

// recordShed counts one inference request shed for load (429).
func (r *Registry) recordShed() {
	r.mu.Lock()
	r.shedTotal++
	r.mu.Unlock()
}

// recordSnapshotWrite counts one durably committed session snapshot.
func (r *Registry) recordSnapshotWrite() {
	r.mu.Lock()
	r.snapWritesTotal++
	r.mu.Unlock()
}

// recordSnapshotQuarantine counts one corrupt, invalid or poisoned
// snapshot, or one legacy journal, moved to quarantine.
func (r *Registry) recordSnapshotQuarantine() {
	r.mu.Lock()
	r.snapQuarantinedTotal++
	r.mu.Unlock()
}

// recordSnapshotError counts one failed persistence operation (save, load
// or delete) that did NOT condemn a file.
func (r *Registry) recordSnapshotError() {
	r.mu.Lock()
	r.snapErrorsTotal++
	r.mu.Unlock()
}

// admissionWait resolves the bounded-admission wait (negative = unbounded).
func (r *Registry) admissionWait() time.Duration { return r.cfg.AdmissionWait }

// traceRing is the per-session cap on retained operation traces.
func (r *Registry) traceRing() int { return r.cfg.TraceRing }

// retryAfter is the Retry-After hint for shed responses.
func (r *Registry) retryAfter() time.Duration { return r.cfg.RetryAfter }

// Metrics is the registry-wide gauge snapshot exported at /metrics.
type Metrics struct {
	SessionsActive  int
	SessionsCreated int
	SessionsEvicted int
	InferTotal      int
	WorkerBudget    int
	PeakParallelism int // largest in-flight MergePair count ever observed
	Counters        core.CountersSnapshot

	// Fault-tolerance counters (see the matching questprod_* gauges).
	PanicsRecovered int
	LoadShed        int
	DegradedInfer   int

	// Durability counters (zero without a store; see the
	// questprod_snapshot_*_total series).
	SnapshotWrites      int
	SnapshotRestores    int
	SnapshotQuarantined int
	SnapshotErrors      int
}

// Metrics returns the current aggregate counters.
func (r *Registry) Metrics() Metrics {
	r.mu.Lock()
	defer r.mu.Unlock()
	return Metrics{
		SessionsActive:  len(r.sessions),
		SessionsCreated: r.createdTotal,
		SessionsEvicted: r.evictedTotal,
		InferTotal:      r.inferTotal,
		WorkerBudget:    r.budget.Size(),
		PeakParallelism: r.peakParallel,
		Counters:        r.totals,
		PanicsRecovered: r.panicsTotal,
		LoadShed:        r.shedTotal,
		DegradedInfer:   r.degradedTotal,

		SnapshotWrites:      r.snapWritesTotal,
		SnapshotRestores:    r.snapRestoresTotal,
		SnapshotQuarantined: r.snapQuarantinedTotal,
		SnapshotErrors:      r.snapErrorsTotal,
	}
}
