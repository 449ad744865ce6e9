package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"questpro/internal/api"
	"questpro/internal/core"
	"questpro/internal/eval"
	"questpro/internal/ntriples"
	"questpro/internal/obs"
	"questpro/internal/provenance"
	"questpro/internal/qerr"
)

// NewServer wires the registry into an http.Handler. The API is JSON over
// the following routes, with every request and response body declared in
// internal/api (the versioned wire contract; see DESIGN.md §service and
// README.md for a curl walkthrough):
//
//	POST   /v1/sessions                      create session (ontology + options)
//	DELETE /v1/sessions/{id}                 evict a session
//	GET    /v1/sessions/{id}/stats           per-session counters
//	GET    /v1/sessions/{id}/trace           recent operation traces (span trees)
//	GET    /v1/sessions/{id}/completions     last inference's completion report
//	POST   /v1/sessions/{id}/examples        submit the example-set (full or partial)
//	POST   /v1/sessions/{id}/infer           run simple/union/topk inference
//	POST   /v1/sessions/{id}/feedback        start the feedback dialogue
//	GET    /v1/sessions/{id}/feedback        re-read the pending question
//	POST   /v1/sessions/{id}/feedback/answer answer the pending question
//	GET    /healthz                          liveness
//	GET    /metrics                          Prometheus text exposition
//
// Every route runs under the withObs middleware: X-Request-Id in/out, an
// access-log record per request, and a per-endpoint latency histogram.
func NewServer(reg *Registry) http.Handler {
	mux := http.NewServeMux()
	handle := func(pattern, endpoint string, h http.HandlerFunc) {
		mux.HandleFunc(pattern, withObs(reg, endpoint, h))
	}
	handle("POST /"+api.Version+"/sessions", "create", func(w http.ResponseWriter, r *http.Request) {
		handleCreate(reg, w, r)
	})
	handle("DELETE /"+api.Version+"/sessions/{id}", "delete", func(w http.ResponseWriter, r *http.Request) {
		if !reg.Delete(r.PathValue("id")) {
			writeError(w, http.StatusNotFound, api.CodeNotFound, fmt.Errorf("service: unknown session"))
			return
		}
		writeJSON(w, http.StatusOK, api.DeleteSessionResponse{Deleted: true})
	})
	handle("GET /"+api.Version+"/sessions/{id}/stats", "stats", withSession(reg, handleStats))
	handle("GET /"+api.Version+"/sessions/{id}/trace", "trace", withSession(reg, handleTrace))
	handle("GET /"+api.Version+"/sessions/{id}/completions", "completions", withSession(reg, handleCompletions))
	handle("POST /"+api.Version+"/sessions/{id}/examples", "examples", withSession(reg, handleExamples))
	handle("POST /"+api.Version+"/sessions/{id}/infer", "infer", withSession(reg, handleInfer))
	handle("POST /"+api.Version+"/sessions/{id}/feedback", "feedback", withSession(reg, handleFeedback))
	handle("GET /"+api.Version+"/sessions/{id}/feedback", "feedback_pending", withSession(reg, handlePendingFeedback))
	handle("POST /"+api.Version+"/sessions/{id}/feedback/answer", "feedback_answer", withSession(reg, handleAnswer))
	handle("GET /healthz", "healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	// Readiness: once this mux is serving, the registry has finished its
	// startup restore, so readiness is unconditionally true here. During
	// restore the ReadyGate in front answers 503 instead (see ready.go);
	// the gateway routes on this signal, /healthz stays pure liveness.
	handle("GET /readyz", "readyz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	handle("GET /metrics", "metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		writeMetrics(w, reg)
	})
	return mux
}

// withSession resolves the {id} path segment before invoking h.
func withSession(reg *Registry, h func(*Session, http.ResponseWriter, *http.Request)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s, ok := reg.Get(r.PathValue("id"))
		if !ok {
			writeError(w, http.StatusNotFound, api.CodeNotFound, fmt.Errorf("service: unknown session"))
			return
		}
		h(s, w, r)
	}
}

func handleCreate(reg *Registry, w http.ResponseWriter, r *http.Request) {
	var req api.CreateSessionRequest
	if !readJSON(w, r, &req) {
		return
	}
	onto, err := ntriples.ParseString(req.Ontology)
	if err != nil {
		writeError(w, http.StatusBadRequest, api.CodeBadRequest, err)
		return
	}
	// Zero-valued option fields keep the paper's defaults; Workers stays a
	// per-session preference that is still clamped by the registry's global
	// budget.
	opts := core.DefaultOptions()
	if v := req.Options.NumIter; v != 0 {
		opts.NumIter = v
	}
	if v := req.Options.K; v != 0 {
		opts.K = v
	}
	if v := req.Options.Workers; v != 0 {
		opts.Workers = v
	}
	if v := req.Options.FirstPairSweep; v != 0 {
		opts.FirstPairSweep = v
	}
	if v := req.Options.CostW1; v != 0 {
		opts.CostW1 = v
	}
	if v := req.Options.CostW2; v != 0 {
		opts.CostW2 = v
	}
	if v := req.Options.MaxCompletions; v != 0 {
		opts.MaxCompletions = v
	}
	opts.Guard = eval.Guard{
		MaxSteps:   req.Options.MaxSteps,
		MaxResults: req.Options.MaxResults,
		MaxBytes:   req.Options.MaxBytes,
	}
	s, err := reg.CreateWithID(req.SessionID, onto, opts)
	if err != nil {
		switch {
		case errors.Is(err, qerr.ErrInternal):
			writeError(w, http.StatusInternalServerError, api.CodeInternal, err)
		case errors.Is(err, qerr.ErrOverloaded):
			// Capacity, not client data: a full session table answers 503 +
			// Retry-After so retry-aware clients (and the gateway's create
			// re-mint) treat it as transient.
			markRequest(r.Context(), func(ri *reqInfo) { ri.shed = true })
			secs := retryAfterSeconds(reg.retryAfter())
			w.Header().Set("Retry-After", strconv.Itoa(secs))
			writeErrorEnvelope(w, http.StatusServiceUnavailable, api.Error{
				Code:          api.CodeOverloaded,
				Message:       err.Error(),
				RetryAfterSec: secs,
			})
		default:
			writeError(w, http.StatusBadRequest, api.CodeBadRequest, err)
		}
		return
	}
	writeJSON(w, http.StatusCreated, api.CreateSessionResponse{SessionID: s.ID})
}

// retryAfterSeconds rounds a Retry-After hint to whole seconds, never
// below 1 (a zero header would tell clients to hammer).
func retryAfterSeconds(d time.Duration) int {
	secs := int(d.Round(time.Second) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs
}

func handleExamples(s *Session, w http.ResponseWriter, r *http.Request) {
	var req api.ExamplesRequest
	if !readJSON(w, r, &req) {
		return
	}
	partial := 0
	for _, e := range req.Examples {
		if e.Partial != nil {
			partial++
		}
	}
	if partial == 0 {
		// Full provenance: the base protocol, byte-for-byte. Keeping this
		// path off the partial pipeline is what keeps full-provenance runs
		// identical to the pre-partial implementation.
		exs := make(provenance.ExampleSet, 0, len(req.Examples))
		for i, e := range req.Examples {
			g, err := ntriples.ParseString(e.Triples)
			if err != nil {
				writeError(w, http.StatusBadRequest, api.CodeBadRequest, fmt.Errorf("example %d: %w", i, err))
				return
			}
			ex, err := provenance.NewByValue(g, e.Distinguished)
			if err != nil {
				writeError(w, http.StatusBadRequest, api.CodeBadRequest, fmt.Errorf("example %d: %w", i, err))
				return
			}
			exs = append(exs, ex)
		}
		if err := s.SetExamples(r.Context(), exs); err != nil {
			writeError(w, http.StatusBadRequest, api.CodeBadRequest, err)
			return
		}
		writeJSON(w, http.StatusOK, api.ExamplesResponse{Examples: len(exs)})
		return
	}
	// Partial input mode: any example marked partial turns the whole set
	// into fragments (unmarked ones become trivially complete fragments and
	// pass through completion untouched).
	pex := make(provenance.PartialExampleSet, 0, len(req.Examples))
	for i, e := range req.Examples {
		g, err := ntriples.ParseString(e.Triples)
		if err != nil {
			writeError(w, http.StatusBadRequest, api.CodeBadRequest, fmt.Errorf("example %d: %w", i, err))
			return
		}
		missing := 0
		if e.Partial != nil {
			missing = e.Partial.MissingEdges
		}
		p, err := provenance.NewPartialByValue(g, e.Distinguished, missing)
		if err != nil {
			writeError(w, http.StatusBadRequest, api.CodeBadRequest, fmt.Errorf("example %d: %w", i, err))
			return
		}
		pex = append(pex, p)
	}
	if err := s.SetPartialExamples(r.Context(), pex); err != nil {
		writeError(w, http.StatusBadRequest, api.CodeBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, api.ExamplesResponse{Examples: len(pex), Partial: partial})
}

func handleInfer(s *Session, w http.ResponseWriter, r *http.Request) {
	var req api.InferRequest
	if !readJSON(w, r, &req) {
		return
	}
	ctx := r.Context()
	if req.TimeoutMS > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(req.TimeoutMS)*time.Millisecond)
		defer cancel()
	}
	res, err := s.Infer(ctx, req.Mode)
	if err != nil {
		writeInferError(w, r, err, s.reg.retryAfter())
		return
	}
	if res.Degraded {
		markRequest(r.Context(), func(ri *reqInfo) { ri.degraded = true })
	}
	c := res.Stats.Counters()
	resp := api.InferResponse{
		Mode:        res.Mode,
		SPARQL:      res.Query.SPARQL(),
		Degraded:    res.Degraded,
		Completions: completionsJSON(res.Completions, res.Completed),
		Stats: api.Stats{
			Algorithm1Calls:       c.Algorithm1Calls,
			Rounds:                c.Rounds,
			CacheHits:             c.CacheHits,
			CacheMisses:           c.CacheMisses,
			GainEvals:             c.GainEvals,
			Restarts:              c.Restarts,
			WallMS:                res.Stats.TotalWall().Milliseconds(),
			GuardSteps:            res.Stats.GuardUsage.Steps,
			CompletionsConsidered: c.CompletionsConsidered,
			CompletionsAccepted:   c.CompletionsAccepted,
		},
	}
	for _, cand := range res.Candidates {
		resp.Candidates = append(resp.Candidates, api.Candidate{
			SPARQL: cand.Query.SPARQL(),
			Cost:   cand.Cost,
		})
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleCompletions serves the completion report of the most recent
// inference over a partial example-set ("completions": null when no
// inference has run yet or the example-set had no fragments).
func handleCompletions(s *Session, w http.ResponseWriter, _ *http.Request) {
	rep, completed, ok := s.Completions()
	if !ok {
		writeJSON(w, http.StatusOK, api.CompletionsResponse{})
		return
	}
	writeJSON(w, http.StatusOK, api.CompletionsResponse{Completions: completionsJSON(&rep, completed)})
}

// completionsJSON renders a completion report (nil-safe) with each choice's
// completed explanation serialized back to the N-Triples dialect.
func completionsJSON(rep *core.CompletionReport, completed provenance.ExampleSet) *api.Completions {
	if rep == nil {
		return nil
	}
	out := &api.Completions{
		Considered: rep.Considered,
		Accepted:   rep.Accepted,
		Degraded:   rep.Degraded,
	}
	for _, ch := range rep.Choices {
		jc := api.CompletionChoice{
			Example:           ch.Example,
			Identity:          ch.Identity,
			AddedTriples:      ch.AddedTriples,
			ResolvedWildcards: ch.ResolvedWildcards,
			Considered:        ch.Considered,
		}
		if ch.Example >= 0 && ch.Example < len(completed) {
			jc.Triples = ntriples.Format(completed[ch.Example].Graph)
		}
		out.Choices = append(out.Choices, jc)
	}
	return out
}

func handleFeedback(s *Session, w http.ResponseWriter, r *http.Request) {
	var req api.FeedbackRequest
	if !readJSON(w, r, &req) {
		return
	}
	ev, err := s.StartFeedback(r.Context(), req.MaxQuestions)
	if err != nil {
		writeInferError(w, r, err, s.reg.retryAfter())
		return
	}
	writeJSON(w, http.StatusOK, feedbackEventJSON(ev))
}

// handlePendingFeedback re-reads the dialogue's current event without
// answering — the recovery path for a client whose previous feedback
// request was canceled before the question reached it.
func handlePendingFeedback(s *Session, w http.ResponseWriter, r *http.Request) {
	ev, err := s.PendingFeedback(r.Context())
	if err != nil {
		writeInferError(w, r, err, s.reg.retryAfter())
		return
	}
	writeJSON(w, http.StatusOK, feedbackEventJSON(ev))
}

func handleAnswer(s *Session, w http.ResponseWriter, r *http.Request) {
	var req api.AnswerRequest
	if !readJSON(w, r, &req) {
		return
	}
	ev, err := s.AnswerFeedback(r.Context(), req.Include)
	if err != nil {
		writeInferError(w, r, err, s.reg.retryAfter())
		return
	}
	writeJSON(w, http.StatusOK, feedbackEventJSON(ev))
}

func feedbackEventJSON(ev FeedbackEvent) api.FeedbackResponse {
	if !ev.Done {
		return api.FeedbackResponse{
			Result:      ev.Question.Value,
			Provenance:  ntriples.Format(ev.Question.Provenance),
			Questions:   ev.Questions,
			Redelivered: ev.Redelivered,
		}
	}
	return api.FeedbackResponse{
		Done:        true,
		Chosen:      ev.Chosen,
		SPARQL:      ev.Query.SPARQL(),
		Questions:   ev.Questions,
		Truncated:   ev.Truncated,
		Redelivered: ev.Redelivered,
	}
}

// handleTrace serves the session's retained operation traces (the root
// span trees of its most recent operations, oldest first). Traces are
// retained only while the process-wide span gate is on (the questprod
// default; -no-trace disables it).
func handleTrace(s *Session, w http.ResponseWriter, _ *http.Request) {
	nodes := s.Traces()
	resp := api.TraceResponse{Traces: make([]*api.TraceNode, 0, len(nodes))}
	for _, n := range nodes {
		resp.Traces = append(resp.Traces, traceNodeJSON(n))
	}
	writeJSON(w, http.StatusOK, resp)
}

// traceNodeJSON converts an obs span tree into its wire mirror, so the
// trace endpoint serves an internal/api shape like every other route.
func traceNodeJSON(n *obs.Node) *api.TraceNode {
	if n == nil {
		return nil
	}
	out := &api.TraceNode{
		Kind:         n.Kind,
		SpanID:       n.SpanID,
		ParentSpanID: n.ParentSpanID,
		StartUnixNs:  n.StartUnixNs,
		DurationNs:   n.DurationNs,
		Outcome:      n.Outcome,
		Counters:     n.Counters,
		Labels:       n.Labels,
	}
	for _, c := range n.Children {
		out.Children = append(out.Children, traceNodeJSON(c))
	}
	return out
}

func handleStats(s *Session, w http.ResponseWriter, _ *http.Request) {
	st := s.Stats()
	writeJSON(w, http.StatusOK, api.SessionStatsResponse{
		Infers:   st.Infers,
		Examples: st.Examples,
		HasQuery: st.HasQuery,
		Counters: api.Counters{
			Algorithm1Calls:       int64(st.Counters.Algorithm1Calls),
			Rounds:                int64(st.Counters.Rounds),
			CacheHits:             int64(st.Counters.CacheHits),
			CacheMisses:           int64(st.Counters.CacheMisses),
			GainEvals:             st.Counters.GainEvals,
			Restarts:              int64(st.Counters.Restarts),
			CompletionsConsidered: st.Counters.CompletionsConsidered,
			CompletionsAccepted:   st.Counters.CompletionsAccepted,
		},
		LastError: st.LastError,
	})
}

// writeMetrics renders the registry's metrics in the Prometheus text
// exposition format (hand-rolled: the repo takes no dependencies): every
// series gets # HELP and # TYPE lines — counters for the monotonically
// increasing *_total series, gauges for point-in-time readings — followed
// by the two latency-histogram families. All scalar values come from one
// Registry.Metrics() call, which snapshots the counters under a single
// lock acquisition, so a scrape never mixes readings from two points in
// time (the histograms are independently atomic; see DESIGN.md §9).
func writeMetrics(w io.Writer, reg *Registry) {
	m := reg.Metrics()
	series := []struct {
		name string
		typ  string
		help string
		val  int64
	}{
		{"questprod_sessions_active", "gauge", "Live sessions.", int64(m.SessionsActive)},
		{"questprod_sessions_created_total", "counter", "Sessions ever created.", int64(m.SessionsCreated)},
		{"questprod_sessions_evicted_total", "counter", "Sessions evicted by the TTL janitor.", int64(m.SessionsEvicted)},
		{"questprod_infer_total", "counter", "Inference runs completed.", int64(m.InferTotal)},
		{"questprod_worker_budget", "gauge", "Size of the shared inference worker budget.", int64(m.WorkerBudget)},
		{"questprod_peak_parallelism", "gauge", "Largest in-flight MergePair count ever observed.", int64(m.PeakParallelism)},
		{"questprod_algorithm1_calls_total", "counter", "Algorithm 1 (MergePair) invocations, cached and fresh.", int64(m.Counters.Algorithm1Calls)},
		{"questprod_rounds_total", "counter", "Inference rounds executed.", int64(m.Counters.Rounds)},
		{"questprod_cache_hits_total", "counter", "Merge-cache hits.", int64(m.Counters.CacheHits)},
		{"questprod_cache_misses_total", "counter", "Merge-cache misses (fresh pair computations).", int64(m.Counters.CacheMisses)},
		{"questprod_gain_evals_total", "counter", "Gain-function evaluations in the merge kernel.", m.Counters.GainEvals},
		{"questprod_restarts_total", "counter", "Merge-kernel restarts.", int64(m.Counters.Restarts)},
		{"questprod_completions_considered_total", "counter", "Candidate completions enumerated for partial examples.", m.Counters.CompletionsConsidered},
		{"questprod_completions_accepted_total", "counter", "Non-identity completions committed for partial examples.", m.Counters.CompletionsAccepted},
		{"questprod_panics_recovered_total", "counter", "Panics converted to errors by a recovery boundary.", int64(m.PanicsRecovered)},
		{"questprod_load_shed_total", "counter", "Inference requests shed for load (429).", int64(m.LoadShed)},
		{"questprod_degraded_total", "counter", "Inferences that returned a degraded (guard-exhausted) result.", int64(m.DegradedInfer)},
		{"questprod_snapshot_writes_total", "counter", "Session snapshots durably committed to the store.", int64(m.SnapshotWrites)},
		{"questprod_snapshot_restores_total", "counter", "Sessions restored from the store at startup.", int64(m.SnapshotRestores)},
		{"questprod_snapshot_quarantined_total", "counter", "Unrestorable snapshots and legacy journal files moved to quarantine.", int64(m.SnapshotQuarantined)},
		{"questprod_snapshot_errors_total", "counter", "Failed snapshot persistence operations (session left dirty).", int64(m.SnapshotErrors)},
	}
	for _, s := range series {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s %d\n", s.name, s.help, s.name, s.typ, s.name, s.val)
	}
	reg.httpDur.WriteProm(w)
	reg.spanDur.WriteProm(w)
}

// writeInferError maps inference failures onto HTTP statuses — the error
// taxonomy of DESIGN.md §8: impossible merges are the client's data (422),
// an exhausted guard with nothing to degrade to is too (422), cancellations
// are timeouts (504), load shedding is 429 with a Retry-After hint,
// recovered panics are 500, anything else is a bad request. The shed/panic
// classifications are also raised on the request's observability record so
// the access log carries them.
func writeInferError(w http.ResponseWriter, r *http.Request, err error, retryAfter time.Duration) {
	switch {
	case errors.Is(err, qerr.ErrOverloaded):
		markRequest(r.Context(), func(ri *reqInfo) { ri.shed = true })
		secs := retryAfterSeconds(retryAfter)
		w.Header().Set("Retry-After", strconv.Itoa(secs))
		writeErrorEnvelope(w, http.StatusTooManyRequests, api.Error{
			Code:          api.CodeOverloaded,
			Message:       err.Error(),
			RetryAfterSec: secs,
		})
	case errors.Is(err, qerr.ErrInternal):
		markRequest(r.Context(), func(ri *reqInfo) { ri.panicked = true })
		writeError(w, http.StatusInternalServerError, api.CodeInternal, err)
	case errors.Is(err, qerr.ErrNoConsistentQuery):
		writeError(w, http.StatusUnprocessableEntity, api.CodeNoConsistentQuery, err)
	case errors.Is(err, qerr.ErrBudgetExhausted):
		writeError(w, http.StatusUnprocessableEntity, api.CodeBudgetExhausted, err)
	case errors.Is(err, qerr.ErrCanceled):
		writeError(w, http.StatusGatewayTimeout, api.CodeCanceled, err)
	default:
		writeError(w, http.StatusBadRequest, api.CodeBadRequest, err)
	}
}

// maxRequestBody caps request bodies; a package variable so tests can
// exercise the 413 path without building a 64MB payload.
var maxRequestBody int64 = 64 << 20

func readJSON(w http.ResponseWriter, r *http.Request, into any) bool {
	// Read one byte past the cap: a LimitReader alone would silently
	// truncate an oversized body and hand the parser a prefix — a confusing
	// 400 at best, a silently misread request at worst. Detect and refuse.
	body, err := io.ReadAll(io.LimitReader(r.Body, maxRequestBody+1))
	if err != nil {
		writeError(w, http.StatusBadRequest, api.CodeBadRequest, err)
		return false
	}
	if int64(len(body)) > maxRequestBody {
		writeError(w, http.StatusRequestEntityTooLarge, api.CodeTooLarge,
			fmt.Errorf("service: request body exceeds %d bytes", maxRequestBody))
		return false
	}
	if len(body) == 0 {
		return true // all request bodies are optional; zero values apply
	}
	if err := json.Unmarshal(body, into); err != nil {
		writeError(w, http.StatusBadRequest, api.CodeBadRequest, err)
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// writeError emits the uniform api.Error envelope — every non-2xx response
// decodes into the same three-field shape regardless of which layer failed.
func writeError(w http.ResponseWriter, status int, code string, err error) {
	writeErrorEnvelope(w, status, api.Error{Code: code, Message: err.Error()})
}

func writeErrorEnvelope(w http.ResponseWriter, status int, e api.Error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(&e)
}
