package service

// In-package tests of the durability layer (persist.go + snapshot.go over
// internal/store): restore fidelity across a registry restart, quarantine
// on restore (corrupt or invalid snapshots, legacy journals), idle-clock
// preservation, eviction GC, and the Close-time flush of sessions left
// dirty by injected persist failures.
// The kill -9 variant of the same scenario lives in cmd/questprod's crash
// harness; here the "crash" is a graceful Close so the tests stay hermetic
// and fast.

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"questpro/internal/core"
	"questpro/internal/faults"
	"questpro/internal/paperfix"
	"questpro/internal/provenance"
	"questpro/internal/store"
)

func openStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	return st
}

// runDialogueAllFalse drives a started dialogue to completion answering
// "exclude" to everything, returning the question values in order.
func runDialogueAllFalse(t *testing.T, s *Session, ev FeedbackEvent) []string {
	t.Helper()
	var qs []string
	for i := 0; !ev.Done; i++ {
		if i > 64 {
			t.Fatal("dialogue did not converge in 64 questions")
		}
		qs = append(qs, ev.Question.Value)
		var err error
		ev, err = s.AnswerFeedback(context.Background(), false)
		if err != nil {
			t.Fatal(err)
		}
	}
	return qs
}

// TestPersistRestoreRoundTrip is the core fidelity check: a session parked
// mid-dialogue (one answer given, the next question delivered but
// unanswered) is shut down, restored into a fresh registry from its
// snapshot, must re-serve the pending question idempotently, and the
// finished dialogue must produce the byte-identical SPARQL an uninterrupted
// session produces.
func TestPersistRestoreRoundTrip(t *testing.T) {
	ctx := context.Background()

	// Control: the full all-false dialogue in a store-less registry.
	ctrl := newTestRegistry(t, Config{})
	cs := createPaperfix(t, ctrl)
	if _, err := cs.Infer(ctx, "topk"); err != nil {
		t.Fatal(err)
	}
	ev, err := cs.StartFeedback(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Done {
		t.Skip("candidates collapsed without questions")
	}
	want := runDialogueAllFalse(t, cs, ev)
	if len(want) < 2 {
		t.Skipf("dialogue asks only %d question(s); cannot park mid-dialogue", len(want))
	}
	wantSPARQL := cs.Result().SPARQL()

	// Interrupted run: answer question 1, leave question 2 delivered but
	// unanswered, then shut the registry down (flushing the snapshot).
	dir := t.TempDir()
	r1 := NewRegistry(Config{Store: openStore(t, dir)})
	s := createPaperfix(t, r1)
	id := s.ID
	if _, err := s.Infer(ctx, "topk"); err != nil {
		t.Fatal(err)
	}
	ev, err = s.StartFeedback(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Done || ev.Question.Value != want[0] {
		t.Fatalf("first question = %+v, want %q", ev, want[0])
	}
	ev, err = s.AnswerFeedback(ctx, false)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Done || ev.Question.Value != want[1] {
		t.Fatalf("second question = %+v, want %q", ev, want[1])
	}
	r1.Close()

	// Restart: the session is restored, the dialogue resumed, and the
	// delivered-but-unanswered question re-served — idempotently.
	r2 := NewRegistry(Config{Store: openStore(t, dir)})
	t.Cleanup(r2.Close)
	if got := r2.Metrics().SnapshotRestores; got != 1 {
		t.Fatalf("SnapshotRestores = %d, want 1", got)
	}
	s2, ok := r2.Get(id)
	if !ok {
		t.Fatalf("session %s not restored", id)
	}
	for i := 0; i < 2; i++ {
		pend, err := s2.PendingFeedback(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if pend.Done || pend.Question == nil || pend.Question.Value != want[1] {
			t.Fatalf("pending read %d = %+v, want question %q", i, pend, want[1])
		}
		if pend.Questions != 2 {
			t.Fatalf("pending read %d reports %d questions asked, want 2", i, pend.Questions)
		}
	}

	// Finish the dialogue: the remaining question sequence and the final
	// query must match the uninterrupted control byte for byte.
	pend, err := s2.PendingFeedback(ctx)
	if err != nil {
		t.Fatal(err)
	}
	got := append([]string{want[0]}, runDialogueAllFalse(t, s2, pend)...)
	if len(got) != len(want) {
		t.Fatalf("resumed dialogue asked %d questions, control asked %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("question %d = %q, control asked %q", i, got[i], want[i])
		}
	}
	if gotSPARQL := s2.Result().SPARQL(); gotSPARQL != wantSPARQL {
		t.Fatalf("resumed SPARQL diverged:\n%s\n--- control ---\n%s", gotSPARQL, wantSPARQL)
	}
	if st := s2.Stats(); st.Infers != 1 || !st.HasQuery {
		t.Fatalf("restored stats = %+v", st)
	}
}

// TestRestoreHonorsIdleClock: the snapshot's last-used clock is installed
// verbatim on restore, so a session that out-idled its TTL while the
// process was down is evicted by the first janitor scan — and its snapshot
// is deleted with it.
func TestRestoreHonorsIdleClock(t *testing.T) {
	dir := t.TempDir()
	r1 := NewRegistry(Config{Store: openStore(t, dir)})
	s := createPaperfix(t, r1)
	id := s.ID
	// Backdate the idle clock and force one more snapshot so it lands on disk.
	s.last.Store(time.Now().Add(-time.Hour).UnixNano())
	s.mu.Lock()
	s.markMutatedLocked()
	s.persistPendingLocked(context.Background())
	s.mu.Unlock()
	r1.Close()

	st2 := openStore(t, dir)
	r2 := newTestRegistry(t, Config{Store: st2, SessionTTL: time.Minute})
	if _, ok := r2.Get(id); !ok {
		t.Fatal("stale session not restored at all")
	}
	// Get touches the clock; restore the staleness before the scan.
	s2, _ := r2.Get(id)
	s2.last.Store(time.Now().Add(-time.Hour).UnixNano())
	if n := r2.evictExpired(time.Now()); n != 1 {
		t.Fatalf("evicted %d sessions, want 1", n)
	}
	if _, ok := r2.Get(id); ok {
		t.Fatal("expired session still resolvable after restore")
	}
	ids, err := st2.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 0 {
		t.Fatalf("snapshots %v still on disk after eviction", ids)
	}
}

// TestEvictionDeletesSnapshot: TTL eviction garbage-collects the evicted
// session's snapshot — no orphaned files accumulate.
func TestEvictionDeletesSnapshot(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	r := newTestRegistry(t, Config{Store: st, SessionTTL: time.Minute})
	s := createPaperfix(t, r)
	if ids, _ := st.List(); len(ids) != 1 {
		t.Fatalf("List = %v, want the one session", ids)
	}
	s.last.Store(time.Now().Add(-time.Hour).UnixNano())
	if n := r.evictExpired(time.Now()); n != 1 {
		t.Fatalf("evicted %d sessions, want 1", n)
	}
	ids, err := st.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 0 {
		t.Fatalf("snapshots %v survived eviction", ids)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if !e.IsDir() {
			t.Fatalf("orphaned file %s after eviction", e.Name())
		}
	}
}

// TestCloseFlushesDirtySessions: when every persist fails (injected), the
// operations still succeed — availability first — and the session is left
// dirty; once the fault clears, Registry.Close's flush writes the final
// state, and a restart restores it completely.
func TestCloseFlushesDirtySessions(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	r1 := NewRegistry(Config{Store: openStore(t, dir)})
	s := createPaperfix(t, r1)
	id := s.ID

	// Fail every store operation from here on (activated after creation so
	// the session-id mint and the initial snapshot are not affected).
	restore := faults.Activate(faults.NewInjector(1,
		faults.Rule{Point: faults.SessionSnapshot, FirstN: 1 << 20}))
	if _, err := s.Infer(ctx, "topk"); err != nil {
		restore()
		t.Fatalf("Infer under persist faults must still succeed: %v", err)
	}
	if m := r1.Metrics(); m.SnapshotErrors == 0 {
		restore()
		t.Fatalf("failed persist not counted: %+v", m)
	}
	restore()
	r1.Close()

	r2 := newTestRegistry(t, Config{Store: openStore(t, dir)})
	s2, ok := r2.Get(id)
	if !ok {
		t.Fatalf("session %s not restored after dirty flush", id)
	}
	if st := s2.Stats(); st.Infers != 1 || !st.HasQuery {
		t.Fatalf("flushed state incomplete: %+v", st)
	}
	if s2.Result() == nil {
		t.Fatal("inferred query lost")
	}
}

// TestCorruptSnapshotQuarantinedOnRestore: a garbage snapshot file is moved
// to quarantine during restore, counted, and the registry comes up healthy.
func TestCorruptSnapshotQuarantinedOnRestore(t *testing.T) {
	dir := t.TempDir()
	openStore(t, dir)
	if err := os.WriteFile(filepath.Join(dir, "deadbeef.snap"), []byte("not a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	r := newTestRegistry(t, Config{Store: openStore(t, dir)})
	if got := r.Metrics().SnapshotQuarantined; got != 1 {
		t.Fatalf("SnapshotQuarantined = %d, want 1", got)
	}
	if r.Len() != 0 {
		t.Fatalf("Len = %d after quarantine, want 0", r.Len())
	}
	ents, err := os.ReadDir(filepath.Join(dir, "quarantine"))
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Fatalf("quarantine holds %d files, want 1", len(ents))
	}
	// The registry is healthy: new sessions create and persist normally.
	s := createPaperfix(t, r)
	if _, ok := r.Get(s.ID); !ok {
		t.Fatal("fresh session unusable after a quarantined restore")
	}
}

// TestInvalidSnapshotQuarantinedOnRestore: a snapshot whose frame and JSON
// are sound but whose example-sets fail the checks SetExamples and
// SetPartialExamples apply is quarantined like a corrupt one, instead of
// restoring a session on which every Infer fails.
func TestInvalidSnapshotQuarantinedOnRestore(t *testing.T) {
	for _, tc := range []struct {
		name   string
		poison func(*sessionSnapshot)
	}{
		{"examples", func(snap *sessionSnapshot) { snap.Examples[0].Distinguished = 9999 }},
		{"completed", func(snap *sessionSnapshot) {
			snap.Completed = append([]snapExample(nil), snap.Examples...)
			snap.Completed[0].Distinguished = 9999
		}},
		{"partial", func(snap *sessionSnapshot) {
			snap.Partial, snap.Examples = snap.Examples, nil
			snap.Partial[0].Distinguished = 9999
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			r1 := NewRegistry(Config{Store: openStore(t, dir)})
			id := createPaperfix(t, r1).ID
			r1.Close()

			st := openStore(t, dir)
			data, err := st.Load(id)
			if err != nil {
				t.Fatal(err)
			}
			snap, err := decodeSessionSnapshot(data)
			if err != nil {
				t.Fatal(err)
			}
			tc.poison(snap)
			if data, err = json.Marshal(snap); err != nil {
				t.Fatal(err)
			}
			if err := st.Save(id, data); err != nil {
				t.Fatal(err)
			}

			r2 := newTestRegistry(t, Config{Store: st})
			if got := r2.Metrics().SnapshotQuarantined; got != 1 {
				t.Fatalf("SnapshotQuarantined = %d, want 1", got)
			}
			if _, ok := r2.Get(id); ok {
				t.Fatal("session with an invalid example-set restored")
			}
			if ids, _ := st.List(); len(ids) != 0 {
				t.Fatalf("invalid snapshot %v left in place", ids)
			}
		})
	}
}

// TestLegacyJournalsSweptOnRestore: the <id>.wal files an older build's
// write-ahead journal left behind are never replayed. An empty one is
// deleted; a non-empty one is quarantined and counted, and its session
// restores from the snapshot alone.
func TestLegacyJournalsSweptOnRestore(t *testing.T) {
	dir := t.TempDir()
	r1 := NewRegistry(Config{Store: openStore(t, dir)})
	full, empty := createPaperfix(t, r1).ID, createPaperfix(t, r1).ID
	r1.Close()

	// The non-empty journal holds one record in the older build's frame
	// (length, CRC32, JSON): an inference the snapshot never saw.
	rec := []byte(`{"seq":99,"op":"infer","mode":"union"}`)
	frame := binary.LittleEndian.AppendUint32(nil, uint32(len(rec)))
	frame = binary.LittleEndian.AppendUint32(frame, crc32.ChecksumIEEE(rec))
	frame = append(frame, rec...)
	if err := os.WriteFile(filepath.Join(dir, full+".wal"), frame, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, empty+".wal"), nil, 0o644); err != nil {
		t.Fatal(err)
	}

	r2 := newTestRegistry(t, Config{Store: openStore(t, dir)})
	if got := r2.Metrics().SnapshotQuarantined; got != 1 {
		t.Fatalf("SnapshotQuarantined = %d, want 1", got)
	}
	for _, id := range []string{full, empty} {
		s, ok := r2.Get(id)
		if !ok {
			t.Fatalf("session %s not restored", id)
		}
		if st := s.Stats(); st.Infers != 0 || st.HasQuery {
			t.Fatalf("session %s replayed its journal: %+v", id, st)
		}
		if _, err := os.Stat(filepath.Join(dir, id+".wal")); !os.IsNotExist(err) {
			t.Fatalf("journal of %s still in the data dir: %v", id, err)
		}
	}
	ents, err := os.ReadDir(filepath.Join(dir, "quarantine"))
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || !strings.HasPrefix(ents[0].Name(), full+".wal.") {
		t.Fatalf("quarantine holds %v, want only the non-empty journal", ents)
	}
}

// TestRestorePartialSession: a partial-provenance session — fragments, the
// cached completion report, and a dialogue over the completed examples —
// survives a restart.
func TestRestorePartialSession(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	r1 := NewRegistry(Config{Store: openStore(t, dir)})
	o := paperfix.Ontology()
	s, err := r1.Create(o, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	id := s.ID
	exs := paperfix.Explanations(o)
	pex := make(provenance.PartialExampleSet, len(exs))
	for i, ex := range exs {
		if pex[i], err = provenance.NewPartialByValue(ex.Graph, ex.DistinguishedValue(), 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.SetPartialExamples(ctx, pex); err != nil {
		t.Fatal(err)
	}
	res, err := s.Infer(ctx, "topk")
	if err != nil {
		t.Fatal(err)
	}
	if res.Completions == nil {
		t.Fatal("partial inference reported no completion phase")
	}
	ev, err := s.StartFeedback(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	wantSPARQL := res.Query.SPARQL()
	r1.Close()

	r2 := newTestRegistry(t, Config{Store: openStore(t, dir)})
	s2, ok := r2.Get(id)
	if !ok {
		t.Fatalf("partial session %s not restored", id)
	}
	rep, completed, ok := s2.Completions()
	if !ok || len(completed) != len(pex) {
		t.Fatalf("completion cache lost: ok=%v completed=%d", ok, len(completed))
	}
	if len(rep.Choices) != len(pex) {
		t.Fatalf("completion report lost its choices: %+v", rep)
	}
	if ev.Done {
		// The dialogue collapsed immediately pre-restart; the chosen query
		// must still be there.
		if s2.Result() == nil {
			t.Fatal("chosen query lost")
		}
		return
	}
	if got := s2.Result().SPARQL(); got != wantSPARQL {
		t.Fatalf("restored result diverged:\n%s\n--- want ---\n%s", got, wantSPARQL)
	}
	// The pre-restart question is re-served and the dialogue finishes.
	pend, err := s2.PendingFeedback(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if pend.Done || pend.Question == nil || pend.Question.Value != ev.Question.Value {
		t.Fatalf("pending after restore = %+v, want question %q", pend, ev.Question.Value)
	}
	fin := pend
	for i := 0; !fin.Done && i < 64; i++ {
		if fin, err = s2.AnswerFeedback(ctx, false); err != nil {
			t.Fatal(err)
		}
	}
	if !fin.Done {
		t.Fatal("resumed partial dialogue did not converge")
	}
	if s2.Result() == nil {
		t.Fatal("no chosen query after resumed dialogue")
	}
}
