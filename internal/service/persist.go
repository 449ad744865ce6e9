package service

import (
	"context"
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
// (internal/store) into the session lifecycle: a snapshot after every
// state-changing operation, restore on startup, and dialogue resumption
// (DESIGN.md §12).
//
// The durability protocol, per mutating operation, all under s.mu and all
// BEFORE the HTTP response is written (the persist runs on the operation's
// deferred unwind, inside the mutex): the operation applies its mutation
// in memory and calls markMutatedLocked; persistPendingLocked then encodes
// the whole session and store.Save swaps it in atomically. Save's rename
// is the one commit point.
//
// Crash windows: before the rename, the operation is lost — and so is its
// response, so the client retries against the pre-operation state; after
// it, restore loads exactly the state whose result the client saw. A
// *failed* persist (disk error, injected fault) is availability-first: the
// operation still succeeds, the session is left dirty (mutSeq > savedSeq),
// the failure is logged and counted, and the next operation — or
// Registry.Close — retries the flush. Until then the acknowledged
// operation is held only in memory.

// markMutatedLocked records that the current operation changed durable
// session state. Callers hold s.mu.
func (s *Session) markMutatedLocked() { s.opDirty = true }

// persistPendingLocked is the snapshot-after-mutation hook: every session
// operation defers it (inside the mutex, before the response is written).
// With persistence disabled it is a single nil check. Callers hold s.mu.
func (s *Session) persistPendingLocked(ctx context.Context) {
	st := s.reg.cfg.Store
	if st == nil {
		s.opDirty = false
		return
	}
	if s.opDirty {
		s.mutSeq++
		s.opDirty = false
	}
	if s.mutSeq == s.savedSeq {
		return
	}
	_, sp := obs.StartSpan(ctx, "snapshot.save")
	sp.SetInt("seq", s.mutSeq)
	data, err := encodeSessionLocked(s, s.mutSeq)
	if err == nil {
		err = st.Save(s.ID, data)
	}
	if err != nil {
		sp.SetOutcome("error")
		sp.Finish()
		s.reg.recordSnapshotError()
		s.reg.logger.Warn("session snapshot failed; session left dirty",
			"session_id", s.ID, "seq", s.mutSeq, "error", err)
		return
	}
	s.savedSeq = s.mutSeq
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
	s.markMutatedLocked()
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
// honored by the first eviction scan rather than racing it. Journals an
// older build left behind are swept first: they are never replayed, so a
// non-empty one is quarantined and counted like any unrestorable file.
func (r *Registry) restoreAll() {
	journals, err := r.cfg.Store.SweepJournals()
	for _, id := range journals {
		r.recordSnapshotQuarantine()
		r.logger.Warn("legacy session journal quarantined, not replayed", "session_id", id)
	}
	if err != nil {
		r.logger.Error("legacy session journal sweep incomplete", "error", err)
	}
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

// restoreOne rebuilds one session from its snapshot. Every failure mode
// is contained to the one session: corrupt, undecodable and invalid
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
