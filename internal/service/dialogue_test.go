package service

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"questpro/internal/core"
	"questpro/internal/faults"
	"questpro/internal/paperfix"
	"questpro/internal/qerr"
)

// createPaperfixSerial is createPaperfix on a single inference worker, so
// the work an operation does — and with it the fault points it hits — is
// the same on every run.
func createPaperfixSerial(t *testing.T, r *Registry) *Session {
	t.Helper()
	o := paperfix.Ontology()
	opts := core.DefaultOptions()
	opts.Workers = 1
	s, err := r.Create(o, opts)
	if err != nil {
		t.Fatal(err)
	}
	s.ev.Workers = 1
	if err := s.SetExamples(context.Background(), paperfix.Explanations(o)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Infer(context.Background(), "topk"); err != nil {
		t.Fatal(err)
	}
	return s
}

// evalHits counts the evaluator work the injector has seen.
func evalHits(in *faults.Injector) int {
	return in.Hits(faults.MatcherStep) + in.Hits(faults.ProvenanceIO)
}

// An operation that aborts a parked dialogue must not leave Algorithm 3
// running: it costs exactly the evaluator work it costs on a session with
// no dialogue, and nothing more runs after it returns.
func TestAbortedDialogueRunsNoMore(t *testing.T) {
	ctx := context.Background()
	aborts := map[string]func(*Session) error{
		"StartFeedback": func(s *Session) error {
			_, err := s.StartFeedback(ctx, 0)
			return err
		},
		"SetExamples": func(s *Session) error {
			return s.SetExamples(ctx, paperfix.Explanations(s.onto))
		},
		"Infer": func(s *Session) error {
			_, err := s.Infer(ctx, "topk")
			return err
		},
	}
	for name, abort := range aborts {
		t.Run(name, func(t *testing.T) {
			r := newTestRegistry(t, Config{})
			parked := createPaperfixSerial(t, r)
			ev, err := parked.StartFeedback(ctx, 0)
			if err != nil {
				t.Fatal(err)
			}
			if ev.Done {
				t.Fatal("paperfix dialogue asked no question")
			}
			control := createPaperfixSerial(t, r)

			// cost runs the abort and counts the evaluator work it causes.
			// The sleep gives work left running in the background time to
			// show; there is no event to wait for, since the point is that
			// nothing runs.
			cost := func(s *Session) int {
				in := faults.NewInjector(1)
				restore := faults.Activate(in)
				defer restore()
				if err := abort(s); err != nil {
					t.Fatal(err)
				}
				n := evalHits(in)
				time.Sleep(50 * time.Millisecond)
				if late := evalHits(in) - n; late != 0 {
					t.Errorf("%d matcher-step/provenance hits after the operation returned", late)
				}
				return evalHits(in)
			}
			want := cost(control)
			if got := cost(parked); got != want {
				t.Fatalf("aborting a parked dialogue cost %d evaluator hits, %d without one", got, want)
			}
		})
	}
}

// A panic mid-turn is reported by the operation's recovery boundary and
// ends the dialogue (its trace records "panic"); the session stays usable.
func TestPanicMidTurnEndsDialogue(t *testing.T) {
	ctx := context.Background()
	r := newTestRegistry(t, Config{})
	s := createPaperfixSerial(t, r)
	ev, err := s.StartFeedback(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Done {
		t.Fatal("paperfix dialogue asked no question")
	}
	restore := faults.Activate(faults.NewInjector(1, faults.Rule{Point: faults.MatcherStep, OnNth: 1, Panic: true}))
	_, err = s.AnswerFeedback(ctx, false)
	restore()
	if !errors.Is(err, qerr.ErrInternal) {
		t.Fatalf("answer with a panicking turn = %v, want ErrInternal", err)
	}
	if _, err := s.PendingFeedback(ctx); err == nil {
		t.Fatal("dialogue survived a panic mid-turn")
	}
	outcome := ""
	for _, n := range s.Traces() {
		if n.Kind == "feedback.dialogue" {
			outcome = n.Outcome
		}
	}
	if outcome != "panic" {
		t.Fatalf("feedback.dialogue outcome = %q, want panic", outcome)
	}
	if ev, err := s.StartFeedback(ctx, 0); err != nil || ev.Question == nil {
		t.Fatalf("new dialogue after the panic: %+v, %v", ev, err)
	}
}

// parkedSnapshotID names the committed fixture testdata/parked_dialogue.snap:
// a paperfix session written by the goroutine-driven dialogue of an earlier
// build, parked after one "exclude" answer with its second question
// delivered (pending_delivered: true).
const parkedSnapshotID = "940c9b6329445fbe1ff8ae10cda64241"

// A snapshot written by an earlier build restores into this one: the
// pending question is re-served twice without change, and the dialogue
// finishes with the SPARQL of an uninterrupted run.
func TestRestoreParkedDialogueFixture(t *testing.T) {
	ctx := context.Background()
	ctrl := newTestRegistry(t, Config{})
	cs := createPaperfix(t, ctrl)
	if _, err := cs.Infer(ctx, "topk"); err != nil {
		t.Fatal(err)
	}
	ev, err := cs.StartFeedback(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := runDialogueAllFalse(t, cs, ev)
	if len(want) < 2 {
		t.Fatalf("control dialogue asked %d questions, the fixture is parked on the second", len(want))
	}
	wantSPARQL := cs.Result().SPARQL()

	data, err := os.ReadFile(filepath.Join("testdata", "parked_dialogue.snap"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, parkedSnapshotID+".snap"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	// The fixture's idle clock is old: keep the janitor away from it.
	r := newTestRegistry(t, Config{Store: openStore(t, dir), SessionTTL: 100 * 365 * 24 * time.Hour})
	s, ok := r.Get(parkedSnapshotID)
	if !ok {
		t.Fatal("fixture session not restored")
	}
	var pend FeedbackEvent
	for i := 0; i < 2; i++ {
		pend, err = s.PendingFeedback(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if pend.Done || pend.Question == nil || pend.Question.Value != want[1] || pend.Questions != 2 {
			t.Fatalf("pending read %d = %+v, want question 2 (%q)", i, pend, want[1])
		}
	}
	got := append([]string{want[0]}, runDialogueAllFalse(t, s, pend)...)
	if len(got) != len(want) {
		t.Fatalf("restored dialogue asked %d questions, control asked %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("question %d = %q, control asked %q", i, got[i], want[i])
		}
	}
	if gotSPARQL := s.Result().SPARQL(); gotSPARQL != wantSPARQL {
		t.Fatalf("restored SPARQL diverged:\n%s\n--- control ---\n%s", gotSPARQL, wantSPARQL)
	}
}
