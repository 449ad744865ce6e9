package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"

	"questpro/internal/conc"
	"questpro/internal/core"
	"questpro/internal/obs"
	"questpro/internal/qerr"
	"questpro/internal/query"
	"questpro/internal/store"
)

// This file integrates the snapshot codec (snapshot.go) and the store
// (internal/store) into the session lifecycle: journal-then-snapshot after
// every state-changing operation, restore-on-startup with WAL replay, and
// dialogue resumption (DESIGN.md §12).
//
// The durability protocol, per mutating operation, all under s.mu and all
// BEFORE the HTTP response is written (the persist runs on the operation's
// deferred unwind, inside the mutex):
//
//  1. the operation applies its mutation in memory and calls
//     markMutatedLocked, optionally staging a WAL record describing how to
//     re-execute it;
//  2. persistPendingLocked appends the WAL record (fsynced) — from here the
//     operation survives a crash even if the snapshot write is torn;
//  3. the full session state is encoded and atomically swapped in as the
//     new snapshot; on success the WAL is truncated (the snapshot subsumes
//     it).
//
// Crash windows: before the WAL append, the operation is simply lost — and
// so is its response, so the client retries against the pre-operation
// state; after the WAL append, restore replays the record against the
// previous snapshot, and because inference and the dialogue kernel are
// deterministic the replay reconstructs the exact post-operation state. A
// *failed* persist (disk error, injected fault) is availability-first: the
// operation still succeeds, the session is left dirty (mutSeq > savedSeq),
// the failure is logged and counted, and the next operation — or
// Registry.Close — retries the flush.

// walOp names the state-changing operations the journal can replay.
const (
	walOpExamples = "examples"
	walOpInfer    = "infer"
	walOpFeedback = "feedback"
	walOpAnswer   = "answer"
)

// walRecord is one journaled operation: enough to re-execute the public
// session op against the preceding snapshot.
type walRecord struct {
	Seq int64  `json:"seq"`
	Op  string `json:"op"`

	// Examples/Partial carry the submitted set for walOpExamples (IsPartial
	// selects the fragment mode).
	Examples  []snapExample `json:"examples,omitempty"`
	Partial   []snapExample `json:"partial,omitempty"`
	IsPartial bool          `json:"is_partial,omitempty"`

	Mode    string `json:"mode,omitempty"`    // walOpInfer
	Max     int    `json:"max,omitempty"`     // walOpFeedback
	Include bool   `json:"include,omitempty"` // walOpAnswer

	// appended tracks whether this record already reached the journal, so
	// a persist retried after a failed snapshot write does not append it
	// twice. In-memory only.
	appended bool
}

// markMutatedLocked records that the current operation changed durable
// session state. w, when non-nil, is the journal record that re-executes
// the operation; nil marks a snapshot-only mutation (e.g. filling the
// completion cache on an otherwise-failed inference, or delivering a
// buffered dialogue question) whose loss a client retry reconstructs.
// Callers hold s.mu.
func (s *Session) markMutatedLocked(w *walRecord) {
	s.opDirty = true
	if w != nil {
		s.opWAL = w
	}
}

// persistPendingLocked is the snapshot-after-mutation hook: every session
// operation defers it (inside the mutex, before the response is written).
// With persistence disabled it is a single nil check. Callers hold s.mu.
func (s *Session) persistPendingLocked(ctx context.Context) {
	st := s.reg.cfg.Store
	if st == nil {
		s.opDirty, s.opWAL = false, nil
		return
	}
	if s.opDirty {
		s.mutSeq++
		if s.opWAL != nil {
			s.opWAL.Seq = s.mutSeq
		}
		s.opDirty = false
	}
	if s.mutSeq == s.savedSeq {
		return
	}
	_, sp := obs.StartSpan(ctx, "snapshot.save")
	sp.SetInt("seq", s.mutSeq)
	err := func() error {
		if w := s.opWAL; w != nil && !w.appended {
			rec, err := json.Marshal(w)
			if err != nil {
				return fmt.Errorf("encoding journal record: %w", err)
			}
			if err := st.AppendWAL(s.ID, rec); err != nil {
				return err
			}
			w.appended = true
		}
		data, err := encodeSessionLocked(s, s.mutSeq)
		if err != nil {
			return err
		}
		return st.Save(s.ID, data)
	}()
	if err != nil {
		sp.SetOutcome("error")
		sp.Finish()
		s.reg.recordSnapshotError()
		s.reg.logger.Warn("session snapshot failed; session left dirty",
			"session_id", s.ID, "seq", s.mutSeq, "error", err)
		return
	}
	s.savedSeq = s.mutSeq
	s.opWAL = nil
	if err := st.ResetWAL(s.ID); err != nil {
		// Not fatal: stale journal entries carry seq <= savedSeq and replay
		// skips them.
		s.reg.logger.Warn("journal truncate failed", "session_id", s.ID, "error", err)
	}
	sp.SetOutcome("ok")
	sp.Finish()
	s.reg.recordSnapshotWrite()
}

// persistInitial writes a session's first snapshot right after Create, so
// a freshly minted session id survives an immediate crash.
func (s *Session) persistInitial() {
	if s.reg.cfg.Store == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.markMutatedLocked(nil)
	s.persistPendingLocked(context.Background())
}

// flushToStore persists the session if it is dirty — Registry.Close calls
// this (before tearing the session down, so an active dialogue's position
// is captured) to guarantee a graceful shutdown loses nothing.
func (s *Session) flushToStore() {
	if s.reg.cfg.Store == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.persistPendingLocked(context.Background())
}

// restoreAll loads every stored snapshot into the registry; called by
// NewRegistry before the janitor starts, so persisted idle clocks are
// honored by the first eviction scan rather than racing it.
func (r *Registry) restoreAll() {
	ids, err := r.cfg.Store.List()
	if err != nil {
		r.logger.Error("session store unreadable; starting empty", "error", err)
		return
	}
	restored := 0
	for _, id := range ids {
		if r.restoreOne(id) {
			restored++
		}
	}
	if len(ids) > 0 {
		r.logger.Info("session store restored", "snapshots", len(ids), "restored", restored)
	}
}

// restoreOne rebuilds one session from its snapshot and journal. Every
// failure mode is contained to the one session: corrupt and undecodable
// snapshots are quarantined (the store moves them aside), load errors are
// skipped, and a panic out of the decode path — the chaos suite injects
// one — is caught here, quarantines the snapshot, and lets startup
// continue with the remaining sessions.
func (r *Registry) restoreOne(id string) (restored bool) {
	st := r.cfg.Store
	_, sp := r.tracer.StartRoot(r.ctx, "session.snapshot.restore")
	sp.SetLabel("session_id", id)
	outcome := "error"
	var s *Session
	defer func() {
		if rec := recover(); rec != nil {
			outcome = "panic"
			r.recordPanic()
			r.logger.Error("session restore panicked; snapshot quarantined",
				"session_id", id, "panic", fmt.Sprint(rec))
			r.quarantine(id)
			restored = false
		}
		if n := r.tracer.FinishRoot(sp, outcome); n != nil && s != nil && restored {
			s.recordTrace(n)
		}
	}()

	data, err := st.Load(id)
	switch {
	case errors.Is(err, store.ErrNotFound):
		return false
	case errors.Is(err, store.ErrCorrupt):
		// The store already moved the file aside.
		r.recordSnapshotQuarantine()
		r.logger.Error("corrupt session snapshot quarantined", "session_id", id, "error", err)
		return false
	case err != nil:
		// Transient (or injected) I/O failure: leave the file for the next
		// restart instead of condemning it.
		r.recordSnapshotError()
		r.logger.Error("session snapshot unreadable; skipped", "session_id", id, "error", err)
		return false
	}
	snap, err := decodeSessionSnapshot(data)
	if err == nil && snap.ID != id {
		err = fmt.Errorf("snapshot names session %s", snap.ID)
	}
	if err != nil {
		r.logger.Error("undecodable session snapshot quarantined", "session_id", id, "error", err)
		r.quarantine(id)
		return false
	}
	s, err = r.rebuildSession(snap)
	if err != nil {
		r.logger.Error("unrestorable session snapshot quarantined", "session_id", id, "error", err)
		r.quarantine(id)
		return false
	}

	r.mu.Lock()
	if len(r.sessions) >= r.cfg.MaxSessions {
		r.mu.Unlock()
		s.close()
		r.logger.Warn("session limit reached during restore; snapshot kept on disk", "session_id", id)
		return false
	}
	r.sessions[id] = s
	r.snapRestoresTotal++
	r.mu.Unlock()

	r.replayWAL(s, snap.Seq)
	r.logger.Info("session restored", "session_id", id, "seq", snap.Seq,
		"dialogue_active", snap.Feedback != nil)
	outcome = "ok"
	return true
}

// quarantine moves a poisoned snapshot aside and counts it.
func (r *Registry) quarantine(id string) {
	if err := r.cfg.Store.Quarantine(id); err != nil {
		r.logger.Error("quarantine failed", "session_id", id, "error", err)
		return
	}
	r.recordSnapshotQuarantine()
}

// rebuildSession turns a decoded snapshot back into a live session:
// graphs re-interned id-for-id and re-frozen, options and counters
// restored, the persisted idle clock installed verbatim (a session that
// out-idled its TTL across the restart is evicted by the first janitor
// scan), and — when a dialogue was active — the feedback position resumed.
func (r *Registry) rebuildSession(snap *sessionSnapshot) (*Session, error) {
	onto, err := snapToGraph(snap.Ontology)
	if err != nil {
		return nil, fmt.Errorf("ontology: %w", err)
	}
	onto.Freeze()
	opts := snapToOptions(snap.Options)
	if err := opts.Validate(); err != nil {
		return nil, fmt.Errorf("options: %w", err)
	}
	s := newSession(r, snap.ID, onto, opts)
	ok := false
	defer func() {
		if !ok {
			s.close()
		}
	}()
	s.last.Store(snap.LastUsedUnixNs)
	s.mutSeq, s.savedSeq = snap.Seq, snap.Seq
	if s.ex, err = snapToExamples(snap.Examples); err != nil {
		return nil, fmt.Errorf("examples: %w", err)
	}
	if s.pex, err = snapToPartial(snap.Partial); err != nil {
		return nil, fmt.Errorf("partial examples: %w", err)
	}
	if s.completed, err = snapToExamples(snap.Completed); err != nil {
		return nil, fmt.Errorf("completed examples: %w", err)
	}
	s.compReport = snapToCompletion(snap.Completion)
	s.counters = snapToCounters(snap.Counters)
	s.infers = snap.Infers
	if snap.ResultSPARQL != "" {
		u, perr := query.ParseSPARQL(snap.ResultSPARQL)
		if perr != nil {
			return nil, fmt.Errorf("result query: %w", perr)
		}
		s.result = u
	}
	if snap.Feedback != nil {
		if err := s.resumeDialogue(snap.Feedback); err != nil {
			// The session's data is intact; only the dialogue could not be
			// reconstructed. Keep the session, log the loss.
			r.logger.Warn("feedback dialogue not resumed", "session_id", s.ID, "error", err)
		}
	}
	ok = true
	return s, nil
}

// resumeDialogue reconstructs an in-flight feedback dialogue: the top-k
// candidate beam is re-derived by re-running the (deterministic) inference,
// a fresh dialogue is started, and the snapshot's answer log is replayed
// through it — reproducing the exact question sequence, including the
// question the client was looking at when the process died, so the
// client's next fetch is idempotent.
func (s *Session) resumeDialogue(fb *snapFeedback) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	exs := s.ex
	opts := s.opts
	if len(s.pex) > 0 {
		if s.compReport == nil || len(s.completed) == 0 {
			return fmt.Errorf("partial session with a dialogue but no completion cache")
		}
		exs = s.completed
		opts.Guard = opts.Guard.Reduce(s.compReport.GuardUsage)
	}
	if len(exs) == 0 {
		return fmt.Errorf("dialogue without an example-set")
	}
	opts.Workers = conc.Workers(opts.Workers)
	cands, _, err := core.InferTopK(s.ctx, exs, opts)
	if err != nil && (len(cands) == 0 || !errors.Is(err, qerr.ErrBudgetExhausted)) {
		return fmt.Errorf("re-deriving candidates: %w", err)
	}
	if len(cands) == 0 {
		return fmt.Errorf("candidate re-derivation produced no candidates")
	}
	s.cands = cands
	qs := make([]*query.Union, len(cands))
	for i, c := range cands {
		qs[i] = c.Query
	}
	run := s.startDialogueLocked(qs, fb.MaxQuestions)
	for i, ans := range fb.Answers {
		if q, _, err := run.d.Next(run.ctx); q == nil {
			s.endDialogueLocked("error")
			return fmt.Errorf("dialogue ended during replay after %d of %d answers: %v", i, len(fb.Answers), err)
		}
		run.d.Answer(ans)
		run.log = append(run.log, ans)
	}
	if fb.PendingDelivered {
		q, _, err := run.d.Next(run.ctx)
		if q == nil {
			s.endDialogueLocked("error")
			return fmt.Errorf("dialogue ended during replay while a question was pending: %v", err)
		}
		run.pending = q
	}
	return nil
}

// replayWAL re-executes journaled operations newer than the snapshot, in
// order. Each replayed operation runs through the public session method —
// re-persisting itself on the way — so after replay the snapshot has
// caught up and the journal is truncated. A record that fails to apply
// stops the replay (state beyond it is unknowable); the session keeps the
// state reached so far.
func (r *Registry) replayWAL(s *Session, snapSeq int64) {
	recs, torn, err := r.cfg.Store.LoadWAL(s.ID)
	if torn {
		r.recordSnapshotQuarantine()
		r.logger.Warn("torn journal tail quarantined", "session_id", s.ID)
	}
	if err != nil {
		r.logger.Error("journal unreadable; skipping replay", "session_id", s.ID, "error", err)
		return
	}
	last := snapSeq
	for _, raw := range recs {
		var w walRecord
		if err := json.Unmarshal(raw, &w); err != nil {
			r.logger.Error("undecodable journal record; replay stopped", "session_id", s.ID, "error", err)
			return
		}
		if w.Seq <= last {
			continue // already subsumed by the snapshot (or a duplicate append)
		}
		last = w.Seq
		if err := s.applyWAL(w); err != nil {
			r.logger.Error("journal replay stopped", "session_id", s.ID, "seq", w.Seq, "op", w.Op, "error", err)
			return
		}
		r.logger.Info("journal record replayed", "session_id", s.ID, "seq", w.Seq, "op", w.Op)
	}
}

// applyWAL re-executes one journaled operation through the public API.
func (s *Session) applyWAL(w walRecord) error {
	ctx := s.ctx
	switch w.Op {
	case walOpExamples:
		if w.IsPartial {
			pex, err := snapToPartial(w.Partial)
			if err != nil {
				return err
			}
			return s.SetPartialExamples(ctx, pex)
		}
		exs, err := snapToExamples(w.Examples)
		if err != nil {
			return err
		}
		return s.SetExamples(ctx, exs)
	case walOpInfer:
		_, err := s.Infer(ctx, w.Mode)
		return err
	case walOpFeedback:
		_, err := s.StartFeedback(ctx, w.Max)
		return err
	case walOpAnswer:
		_, err := s.AnswerFeedback(ctx, w.Include)
		return err
	default:
		return fmt.Errorf("unknown journal op %q", w.Op)
	}
}
