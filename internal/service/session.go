package service

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"questpro/internal/conc"
	"questpro/internal/core"
	"questpro/internal/eval"
	"questpro/internal/feedback"
	"questpro/internal/graph"
	"questpro/internal/obs"
	"questpro/internal/provenance"
	"questpro/internal/qerr"
	"questpro/internal/query"
)

// Session is one client's inference state: an ontology (fixed at creation),
// an example-set, the last inference outcome and at most one feedback
// dialogue. Methods serialize on an internal mutex, so concurrent requests
// against the same session queue instead of racing; distinct sessions only
// share the registry's worker budget.
type Session struct {
	ID string

	reg *Registry

	// ctx is the session-scoped context: a child of the registry's root,
	// canceled when the session is evicted or the registry closes. Feedback
	// turns run under it rather than under their request's context, so a
	// turn outlives a request that gives up but not the session.
	ctx    context.Context
	cancel context.CancelFunc

	// last is the last-use time in unix nanoseconds, updated lock-free so
	// the TTL janitor never contends with a long-running inference.
	last atomic.Int64

	// inflight counts client operations in progress (including ones queued
	// on the worker budget); the janitor skips busy sessions, so an
	// inference outliving the TTL is not evicted mid-run.
	inflight atomic.Int64

	// lastErr records the session's most recent internal error (a recovered
	// panic), for the stats endpoint. An atomic pointer, not a mutex field:
	// the recovery boundary stores it while the stack is unwinding, at a
	// point where s.mu may already have been released by an earlier defer.
	lastErr atomic.Pointer[qerr.InternalError]

	mu     sync.Mutex
	ev     *eval.Evaluator
	onto   *graph.Graph
	opts   core.Options
	ex     provenance.ExampleSet
	result *query.Union     // last inferred (or feedback-chosen) query
	cands  []core.Candidate // last top-k candidates
	fb     *feedbackRun

	// Partial-provenance state (DESIGN.md §11): pex is the submitted
	// fragment set when the client used the partial input mode (nil when
	// the session holds only complete examples); completed/compReport cache
	// the completion phase's outcome — completion is deterministic for a
	// fixed fragment set and options, so it runs once on the first Infer
	// and is reused until the example-set changes.
	pex        provenance.PartialExampleSet
	completed  provenance.ExampleSet
	compReport *core.CompletionReport

	counters core.CountersSnapshot
	infers   int

	// Durability bookkeeping (DESIGN.md §12), guarded by mu. mutSeq counts
	// committed state-changing operations and savedSeq the last sequence
	// durably snapshotted (dirty ⇔ mutSeq > savedSeq, so a failed persist
	// is retried by the next operation or the Close flush); opDirty
	// stages the in-flight operation's mutation flag for the deferred
	// persistPendingLocked. All three are inert — one nil check per
	// operation — when the registry runs without a store.
	mutSeq   int64
	savedSeq int64
	opDirty  bool

	// traces is the ring of the session's most recent finished operation
	// traces (root span snapshots, oldest first), served at
	// /v1/sessions/{id}/trace. Its own mutex, not s.mu: operation traces
	// are recorded while the operation's stack unwinds, after its s.mu
	// defer released the lock, while a dialogue's trace is recorded under
	// s.mu by the request that ends it.
	traceMu sync.Mutex
	traces  []*obs.Node
}

func newSession(r *Registry, id string, onto *graph.Graph, opts core.Options) *Session {
	ctx, cancel := context.WithCancel(r.ctx)
	s := &Session{
		ID:     id,
		reg:    r,
		ctx:    ctx,
		cancel: cancel,
		ev:     eval.New(onto),
		onto:   onto,
		opts:   opts,
	}
	s.touch()
	return s
}

func (s *Session) touch()              { s.last.Store(time.Now().UnixNano()) }
func (s *Session) lastUsed() time.Time { return time.Unix(0, s.last.Load()) }

// begin/end bracket one client operation. The end-side touch restarts the
// idle clock when the operation finishes, so a session is idle-for-TTL
// only relative to its last completed work, not the request that started
// it; the inflight count lets the janitor skip sessions mid-operation.
func (s *Session) begin() { s.inflight.Add(1); s.touch() }
func (s *Session) end()   { s.inflight.Add(-1); s.touch() }

// busy reports whether a client operation is in flight.
func (s *Session) busy() bool { return s.inflight.Load() > 0 }

// recoverOp is the session's recovery boundary: every client-facing
// operation defers a closure (FIRST, so it runs last during an unwind,
// after the mutex and inflight defers have already released their state)
// that passes its recover() value here — recover only works when called
// directly by the deferred function, so this helper takes the value rather
// than calling recover itself. A panic anywhere below becomes a
// qerr.ErrInternal-matching error on the operation's named return value.
// The panic poisons only this call: the session stays usable, the
// sanitized stack is kept as the session's last error (tagged with the
// request id when the operation came through the HTTP layer, so the stats
// report correlates with the access log), and the registry counts the
// recovery. Panics on merge-engine worker goroutines never reach here —
// they are recovered at safeMergePair and arrive as ordinary errors; this
// boundary covers the request goroutine itself.
func (s *Session) recoverOp(ctx context.Context, op string, r any, errp *error) {
	if r == nil {
		return
	}
	ie := qerr.Internal(r, debug.Stack())
	if x, ok := ie.(*qerr.InternalError); ok {
		if rid := requestID(ctx); rid != "" {
			x.Recovered += " [request_id=" + rid + "]"
		}
		s.lastErr.Store(x)
	}
	s.reg.recordPanic()
	markRequest(ctx, func(ri *reqInfo) { ri.panicked = true })
	*errp = fmt.Errorf("service: %s: %w", op, ie)
}

// startOp opens the root span for one client-facing session operation; all
// child spans below (inference rounds, pair merges, candidate probes,
// provenance enumeration, feedback turns) hang off it. With tracing
// disabled the span is nil and every downstream obs call short-circuits.
func (s *Session) startOp(ctx context.Context, kind string) (context.Context, *obs.Span) {
	ctx, sp := s.reg.tracer.StartRoot(ctx, kind)
	if sp != nil {
		sp.SetLabel("session_id", s.ID)
		if rid := requestID(ctx); rid != "" {
			sp.SetLabel("request_id", rid)
		}
		if parent := remoteParentSpan(ctx); parent != "" {
			sp.SetRemoteParent(parent)
		}
	}
	return ctx, sp
}

// endOp finishes an operation's root span with its outcome, feeds the
// per-kind latency histograms, appends the snapshot to the session's trace
// ring and (when configured) the trace journal. Runs during the unwind,
// after recoverOp, so a recovered panic is visible as err here.
func (s *Session) endOp(sp *obs.Span, err error, degraded bool) {
	if sp == nil {
		return
	}
	if n := s.reg.tracer.FinishRoot(sp, outcomeOf(err, degraded)); n != nil {
		s.recordTrace(n)
	}
}

// outcomeOf classifies an operation's result for spans and logs: the same
// taxonomy writeInferError maps onto HTTP statuses.
func outcomeOf(err error, degraded bool) string {
	switch {
	case err == nil && degraded:
		return "degraded"
	case err == nil:
		return "ok"
	case errors.Is(err, qerr.ErrInternal):
		return "panic"
	case errors.Is(err, qerr.ErrOverloaded):
		return "shed"
	case errors.Is(err, qerr.ErrCanceled):
		return "canceled"
	default:
		return "error"
	}
}

// recordTrace appends one finished operation trace, evicting the oldest
// beyond the configured ring size.
func (s *Session) recordTrace(n *obs.Node) {
	s.traceMu.Lock()
	defer s.traceMu.Unlock()
	s.traces = append(s.traces, n)
	if max := s.reg.traceRing(); len(s.traces) > max {
		s.traces = s.traces[len(s.traces)-max:]
	}
}

// Traces returns the session's retained operation traces, oldest first.
// The nodes are immutable snapshots; only the slice is copied.
func (s *Session) Traces() []*obs.Node {
	s.traceMu.Lock()
	defer s.traceMu.Unlock()
	return append([]*obs.Node(nil), s.traces...)
}

// close cancels the session's context, which stops a turn in progress, and
// ends its feedback dialogue (if any).
func (s *Session) close() {
	s.cancel()
	s.mu.Lock()
	s.endDialogueLocked("canceled")
	s.mu.Unlock()
}

// SetExamples validates and installs the example-set, resetting any
// previous inference outcome and aborting a feedback dialogue in progress.
func (s *Session) SetExamples(ctx context.Context, exs provenance.ExampleSet) (err error) {
	ctx, sp := s.startOp(ctx, "session.examples")
	defer func() {
		s.recoverOp(ctx, "set examples", recover(), &err)
		s.endOp(sp, err, false)
	}()
	sp.SetInt("examples", int64(len(exs)))
	s.begin()
	defer s.end()
	if err := exs.Validate(); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	defer s.persistPendingLocked(ctx)
	s.endDialogueLocked("canceled")
	s.ex = exs
	s.pex = nil
	s.completed = nil
	s.compReport = nil
	s.result = nil
	s.cands = nil
	s.markMutatedLocked()
	return nil
}

// SetPartialExamples validates and installs a fragment set (the partial
// input mode). The fragments are completed against the ontology lazily, on
// the first Infer, so submission stays cheap and the completion search
// runs under the inference request's context and guard.
func (s *Session) SetPartialExamples(ctx context.Context, pex provenance.PartialExampleSet) (err error) {
	ctx, sp := s.startOp(ctx, "session.examples")
	defer func() {
		s.recoverOp(ctx, "set partial examples", recover(), &err)
		s.endOp(sp, err, false)
	}()
	sp.SetInt("examples", int64(len(pex)))
	sp.SetLabel("partial", "true")
	s.begin()
	defer s.end()
	if err := pex.Validate(); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	defer s.persistPendingLocked(ctx)
	s.endDialogueLocked("canceled")
	s.ex = nil
	s.pex = pex
	s.completed = nil
	s.compReport = nil
	s.result = nil
	s.cands = nil
	s.markMutatedLocked()
	return nil
}

// Completions returns the completion report and completed explanations of
// the most recent inference over a partial example-set (ok=false when the
// session has none — no fragments submitted, or no inference run yet).
func (s *Session) Completions() (core.CompletionReport, provenance.ExampleSet, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.compReport == nil {
		return core.CompletionReport{}, nil, false
	}
	return *s.compReport, s.completed, true
}

// InferResult is one inference outcome.
type InferResult struct {
	Mode  string
	Query *query.Union // the inferred query (best candidate for top-k)
	// Candidates is the cost-sorted beam, top-k mode only.
	Candidates []core.Candidate
	Stats      core.Stats

	// Degraded reports that the run exhausted its resource guard and Query
	// is the best consistent partial state, not the fixpoint (see
	// core.Options.Guard). Served with 200 + "degraded":true.
	Degraded bool

	// Completions reports the completion phase when the example-set was
	// submitted as fragments (nil otherwise); Completed holds the
	// explanations inference actually ran over, index-aligned with the
	// submitted set.
	Completions *core.CompletionReport
	Completed   provenance.ExampleSet
}

// Infer runs one of the inference algorithms ("simple", "union" or "topk")
// over the session's example-set. The worker count is leased from the
// registry's shared budget for the duration of the run: under load a
// request queues for at most the registry's admission wait and is then
// shed with a qerr.ErrOverloaded-matching error (429 over HTTP) instead of
// piling up unboundedly. Cancellation — the HTTP client going away, a
// request deadline, or session eviction — surfaces as a qerr.ErrCanceled-
// wrapped error from inside the merge engine's round loop. A run that
// exhausts its resource guard but still produced a consistent partial
// query returns it with Degraded set and a nil error.
func (s *Session) Infer(ctx context.Context, mode string) (res InferResult, err error) {
	ctx, sp := s.startOp(ctx, "session.infer")
	defer func() {
		s.recoverOp(ctx, "infer", recover(), &err)
		s.endOp(sp, err, res.Degraded)
	}()
	sp.SetLabel("mode", mode)
	s.begin()
	defer s.end()
	s.mu.Lock()
	defer s.mu.Unlock()
	defer s.persistPendingLocked(ctx)
	if len(s.ex) == 0 && len(s.pex) == 0 {
		return InferResult{}, fmt.Errorf("service: no example-set submitted")
	}
	s.endDialogueLocked("canceled")

	// A canceled session must abort the run even when the request context
	// is healthy (e.g. the registry is shutting down).
	ctx, cancel := mergeCancel(ctx, s.ctx)
	defer cancel()

	opts := s.opts
	got, err := s.reg.budget.AcquireWithin(ctx, conc.Workers(opts.Workers), s.reg.admissionWait())
	if err != nil {
		if errors.Is(err, qerr.ErrOverloaded) {
			s.reg.recordShed()
		}
		return InferResult{}, err
	}
	defer s.reg.budget.Release(got)
	opts.Workers = got

	// Partial input mode: resolve the fragments into complete explanations
	// first (cached — completion is deterministic for fixed fragments and
	// options), then shrink the inference guard by what the search spent so
	// both phases share the one per-operation budget.
	exs := s.ex
	ranCompletion := false
	if len(s.pex) > 0 {
		if s.compReport == nil {
			completed, rep, cerr := core.CompleteExamples(ctx, s.onto, s.pex, opts)
			if cerr != nil {
				return InferResult{}, cerr
			}
			s.completed, s.compReport = completed, &rep
			ranCompletion = true
			// The cache is durable state even when the inference below
			// fails (a lost cache is deterministically recomputed by the
			// client's retry).
			s.markMutatedLocked()
		}
		exs = s.completed
		res.Completions, res.Completed = s.compReport, s.completed
		opts.Guard = opts.Guard.Reduce(s.compReport.GuardUsage)
		if s.compReport.Degraded {
			res.Degraded = true
		}
	}

	res.Mode = mode
	var stats core.Stats
	switch mode {
	case "simple":
		q, st, err := core.InferSimple(ctx, exs, opts)
		if err != nil {
			return InferResult{}, err
		}
		res.Query, stats = query.NewUnion(q), st
	case "union":
		u, st, err := core.InferUnion(ctx, exs, opts)
		if err != nil {
			if u == nil || !errors.Is(err, qerr.ErrBudgetExhausted) {
				return InferResult{}, err
			}
			res.Degraded = true // guard ran out; u is a consistent partial
		}
		res.Query, stats = u, st
	case "topk":
		cands, st, err := core.InferTopK(ctx, exs, opts)
		if err != nil {
			if len(cands) == 0 || !errors.Is(err, qerr.ErrBudgetExhausted) {
				return InferResult{}, err
			}
			res.Degraded = true
		}
		if len(cands) == 0 {
			return InferResult{}, fmt.Errorf("service: top-k search produced no candidates")
		}
		res.Query, res.Candidates, stats = cands[0].Query, cands, st
	default:
		return InferResult{}, fmt.Errorf("service: unknown inference mode %q", mode)
	}
	// Stats counts the work this call performed: a cached completion
	// (reused by a repeat inference) still rides in res.Completions but
	// charges no counters again.
	if ranCompletion {
		stats.CompletionsConsidered = res.Completions.Considered
		stats.CompletionsAccepted = res.Completions.Accepted
	}
	res.Stats = stats
	// The root span carries the same counters the response reports, so a
	// trace can be cross-checked against the client-visible stats.
	core.AnnotateStats(sp, &stats)
	s.result = res.Query
	s.cands = res.Candidates
	s.counters.Add(stats.Counters())
	s.infers++
	s.reg.recordInfer(stats)
	s.markMutatedLocked()
	return res, nil
}

// mergeCancel derives a context from primary that is additionally canceled
// when secondary is.
func mergeCancel(primary, secondary context.Context) (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithCancel(primary)
	stop := context.AfterFunc(secondary, cancel)
	return ctx, func() { stop(); cancel() }
}

// FeedbackEvent is one step of the feedback dialogue as seen over HTTP:
// either the next membership question or the final decision.
type FeedbackEvent struct {
	Done bool

	// Question (when !Done) is the result the user must accept or refuse.
	Question *eval.ResultWithProvenance

	// Chosen and Query (when Done) identify the winning candidate.
	// Truncated reports that the question budget ran out first (the query
	// is the leading candidate, not a confirmed winner).
	Chosen    int
	Query     *query.Union
	Questions int
	Truncated bool

	// Redelivered reports that an AnswerFeedback verdict was NOT consumed
	// because no delivered question was awaiting one (the request that
	// should have delivered it was canceled mid-dialogue); the client must
	// answer the returned question instead.
	Redelivered bool
}

// feedbackRun is the session's feedback dialogue: Algorithm 3's step
// machine plus what the requests and the snapshot codec keep around it.
// Requests step it one turn at a time under the session mutex; nothing runs
// between requests.
type feedbackRun struct {
	d     *feedback.Dialogue
	cands []*query.Union

	// ctx is a child of the session context carrying the dialogue's
	// feedback.dialogue root span (sp). Every turn runs under it, not under
	// the request's context: the dialogue spans many requests, and a turn
	// whose request gives up is finished and kept for the next request.
	ctx context.Context
	sp  *obs.Span

	// pending is the question delivered to the client and awaiting an
	// answer (nil when none). A question computed for a request that gave
	// up before delivery stays undelivered inside d.
	pending *eval.ResultWithProvenance

	// maxQuestions and log make the dialogue's position replayable by the
	// snapshot codec: the question budget the dialogue was started with,
	// and every answer consumed so far in order. Replaying log through a
	// fresh dialogue over the same (deterministically re-derived)
	// candidates reproduces the exact question sequence.
	maxQuestions int
	log          []bool
}

// asked counts the questions delivered so far: every answered one plus
// the pending one.
func (run *feedbackRun) asked() int {
	if run.pending != nil {
		return len(run.log) + 1
	}
	return len(run.log)
}

// startDialogueLocked installs a fresh dialogue over cands as the session's
// and opens its root span; callers hold s.mu. Shared by StartFeedback and
// the restore path's resumeDialogue, so a resumed dialogue runs
// byte-identically to a live one.
func (s *Session) startDialogueLocked(cands []*query.Union, max int) *feedbackRun {
	fs := &feedback.Session{Ev: s.ev, Ex: s.ex, MaxQuestions: max}
	// The dialogue gets its own root span: it outlives the request that
	// started it, so it cannot hang off that request's span. Its children
	// are the feedback.question turns; their durations include user think
	// time.
	ctx, sp := s.reg.tracer.StartRoot(s.ctx, "feedback.dialogue")
	if sp != nil {
		sp.SetLabel("session_id", s.ID)
		sp.SetInt("candidates", int64(len(cands)))
	}
	s.fb = &feedbackRun{d: fs.NewDialogue(cands), cands: cands, ctx: ctx, sp: sp, maxQuestions: max}
	return s.fb
}

// endDialogueLocked detaches the session's dialogue, if any, and finishes
// its root span with the outcome; callers hold s.mu.
func (s *Session) endDialogueLocked(outcome string) {
	run := s.fb
	if run == nil {
		return
	}
	s.fb = nil
	run.d.Close(outcome)
	if run.sp != nil {
		run.sp.SetInt("questions", int64(len(run.d.Transcript().Questions)))
		if n := s.reg.tracer.FinishRoot(run.sp, outcome); n != nil {
			s.recordTrace(n)
		}
	}
}

// StartFeedback begins Algorithm 3 over the candidates of the last top-k
// inference and returns the first event: usually the first question, or an
// immediate decision when the candidates are indistinguishable. max bounds
// the number of questions (0 = unbounded).
func (s *Session) StartFeedback(ctx context.Context, max int) (_ FeedbackEvent, err error) {
	ctx, sp := s.startOp(ctx, "session.feedback.start")
	defer func() {
		s.recoverOp(ctx, "start feedback", recover(), &err)
		s.endOp(sp, err, false)
	}()
	s.begin()
	defer s.end()
	s.mu.Lock()
	defer s.mu.Unlock()
	defer s.persistPendingLocked(ctx)
	if len(s.cands) == 0 {
		return FeedbackEvent{}, fmt.Errorf("service: no candidates: run a top-k inference first")
	}
	s.endDialogueLocked("canceled")
	cands := make([]*query.Union, len(s.cands))
	for i, c := range s.cands {
		cands[i] = c.Query
	}
	run := s.startDialogueLocked(cands, max)
	s.markMutatedLocked()
	return s.turnLocked(ctx, run)
}

// AnswerFeedback relays the user's verdict on the pending question and
// returns the next event. If no delivered question is awaiting an answer —
// the request that should have delivered it was canceled mid-dialogue —
// the verdict is NOT consumed (it has no question to apply to); instead
// the pending event is (re)delivered with Redelivered set, and the client
// answers that. PendingFeedback offers the same recovery as a read.
func (s *Session) AnswerFeedback(ctx context.Context, include bool) (_ FeedbackEvent, err error) {
	ctx, sp := s.startOp(ctx, "session.feedback.answer")
	defer func() {
		s.recoverOp(ctx, "answer feedback", recover(), &err)
		s.endOp(sp, err, false)
	}()
	s.begin()
	defer s.end()
	s.mu.Lock()
	defer s.mu.Unlock()
	defer s.persistPendingLocked(ctx)
	run := s.fb
	if run == nil {
		return FeedbackEvent{}, fmt.Errorf("service: no feedback dialogue in progress")
	}
	if run.pending == nil {
		ev, err := s.turnLocked(ctx, run)
		if err == nil {
			ev.Redelivered = true
		}
		return ev, err
	}
	if err := ctx.Err(); err != nil {
		return FeedbackEvent{}, qerr.Canceled(err)
	}
	run.d.Answer(include)
	run.pending = nil
	run.log = append(run.log, include)
	s.markMutatedLocked()
	return s.turnLocked(ctx, run)
}

// PendingFeedback returns the dialogue's current event without consuming
// an answer: the already-delivered question when one awaits a verdict,
// otherwise the next question or the outcome. This is how a client whose
// previous request was canceled mid-dialogue re-fetches the question it
// lost.
func (s *Session) PendingFeedback(ctx context.Context) (_ FeedbackEvent, err error) {
	ctx, sp := s.startOp(ctx, "session.feedback.pending")
	defer func() {
		s.recoverOp(ctx, "pending feedback", recover(), &err)
		s.endOp(sp, err, false)
	}()
	s.begin()
	defer s.end()
	s.mu.Lock()
	defer s.mu.Unlock()
	defer s.persistPendingLocked(ctx)
	run := s.fb
	if run == nil {
		return FeedbackEvent{}, fmt.Errorf("service: no feedback dialogue in progress")
	}
	if run.pending != nil {
		// Re-serving the already-delivered question changes nothing; the
		// deferred persist sees a clean session and is a no-op.
		return FeedbackEvent{Question: run.pending, Questions: run.asked()}, nil
	}
	return s.turnLocked(ctx, run)
}

// turnLocked runs the dialogue to its next event — the next question or
// the outcome — and delivers it; callers hold s.mu. The turn runs under the
// dialogue's context, so a request that gives up mid-turn does not throw
// the turn away: the event is left undelivered and the next request gets
// it without recomputing. A panic mid-turn ends the dialogue (its root span
// records "panic") and unwinds to the operation's recoverOp.
func (s *Session) turnLocked(ctx context.Context, run *feedbackRun) (FeedbackEvent, error) {
	stepped := false
	defer func() {
		if !stepped {
			s.endDialogueLocked("panic")
			s.markMutatedLocked()
		}
	}()
	q, chosen, err := run.d.Next(run.ctx)
	stepped = true
	if cerr := run.ctx.Err(); cerr != nil {
		// The session is closing. The dialogue stays where it was, so a
		// shutdown flush still captures its position.
		return FeedbackEvent{}, qerr.Canceled(cerr)
	}
	truncated := errors.Is(err, qerr.ErrMaxQuestions)
	if err != nil && !truncated {
		s.endDialogueLocked(outcomeOf(err, false))
		s.markMutatedLocked()
		return FeedbackEvent{}, err
	}
	if err := ctx.Err(); err != nil {
		return FeedbackEvent{}, qerr.Canceled(err)
	}
	// Delivering a question or an outcome is a mutation: losing it just
	// means the restored dialogue re-serves it.
	s.markMutatedLocked()
	if q != nil {
		run.pending = q
		return FeedbackEvent{Question: q, Questions: run.asked()}, nil
	}
	outcome := "ok"
	if truncated {
		outcome = "truncated"
	}
	s.endDialogueLocked(outcome)
	s.result = run.cands[chosen]
	return FeedbackEvent{
		Done:      true,
		Chosen:    chosen,
		Query:     run.cands[chosen],
		Questions: len(run.d.Transcript().Questions),
		Truncated: truncated,
	}, nil
}

// SessionStats is the per-session counter snapshot served at
// /v1/sessions/{id}/stats.
type SessionStats struct {
	Infers   int
	Counters core.CountersSnapshot
	Examples int
	HasQuery bool

	// LastError is the session's most recent recovered panic (sanitized
	// message, no stack), empty when none ever fired.
	LastError string
}

// Stats returns the session's accumulated counters.
func (s *Session) Stats() SessionStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := SessionStats{
		Infers:   s.infers,
		Counters: s.counters,
		Examples: len(s.ex) + len(s.pex),
		HasQuery: s.result != nil,
	}
	if ie := s.lastErr.Load(); ie != nil {
		st.LastError = ie.Error()
	}
	return st
}

// Result returns the session's current query (last inferred or
// feedback-chosen), or nil.
func (s *Session) Result() *query.Union {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.result
}
