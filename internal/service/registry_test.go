package service

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"questpro/internal/core"
	"questpro/internal/faults"
	"questpro/internal/paperfix"
	"questpro/internal/qerr"
)

func newTestRegistry(t *testing.T, cfg Config) *Registry {
	t.Helper()
	r := NewRegistry(cfg)
	t.Cleanup(r.Close)
	return r
}

func createPaperfix(t *testing.T, r *Registry) *Session {
	t.Helper()
	o := paperfix.Ontology()
	s, err := r.Create(o, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetExamples(context.Background(), paperfix.Explanations(o)); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestRegistryCreateGetDelete(t *testing.T) {
	r := newTestRegistry(t, Config{})
	s := createPaperfix(t, r)
	if got, ok := r.Get(s.ID); !ok || got != s {
		t.Fatalf("Get(%q) = %v, %v", s.ID, got, ok)
	}
	if _, ok := r.Get("nope"); ok {
		t.Fatal("Get of unknown id succeeded")
	}
	if r.Len() != 1 {
		t.Fatalf("Len = %d, want 1", r.Len())
	}
	if !r.Delete(s.ID) {
		t.Fatal("Delete failed")
	}
	if r.Delete(s.ID) {
		t.Fatal("second Delete succeeded")
	}
	if err := s.ctx.Err(); err == nil {
		t.Fatal("deleted session context not canceled")
	}
}

func TestRegistryValidatesOptions(t *testing.T) {
	r := newTestRegistry(t, Config{})
	bad := core.DefaultOptions()
	bad.Workers = -1
	if _, err := r.Create(paperfix.Ontology(), bad); err == nil {
		t.Fatal("negative Workers accepted")
	}
	if _, err := r.Create(nil, core.DefaultOptions()); err == nil {
		t.Fatal("nil ontology accepted")
	}
}

func TestRegistryMaxSessions(t *testing.T) {
	r := newTestRegistry(t, Config{MaxSessions: 2})
	o := paperfix.Ontology()
	for i := 0; i < 2; i++ {
		if _, err := r.Create(o, core.DefaultOptions()); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := r.Create(o, core.DefaultOptions()); err == nil {
		t.Fatal("session above the cap accepted")
	}
}

// TestRegistryConcurrentSessions drives 32 independent sessions through the
// whole lifecycle concurrently (the -race build is the real assertion).
func TestRegistryConcurrentSessions(t *testing.T) {
	r := newTestRegistry(t, Config{TotalWorkers: 2})
	var wg sync.WaitGroup
	errs := make([]error, 32)
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			o := paperfix.Ontology()
			s, err := r.Create(o, core.DefaultOptions())
			if err != nil {
				errs[i] = err
				return
			}
			if err := s.SetExamples(context.Background(), paperfix.Explanations(o)); err != nil {
				errs[i] = err
				return
			}
			for _, mode := range []string{"simple", "union", "topk"} {
				if _, err := s.Infer(context.Background(), mode); err != nil {
					errs[i] = err
					return
				}
			}
			if s.Result() == nil {
				errs[i] = errors.New("no result after inference")
			}
			r.Delete(s.ID)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("session %d: %v", i, err)
		}
	}
	m := r.Metrics()
	if m.SessionsCreated != 32 || m.InferTotal != 96 || m.SessionsActive != 0 {
		t.Fatalf("metrics = %+v", m)
	}
	if m.Counters.Algorithm1Calls == 0 {
		t.Fatal("aggregate counters not recorded")
	}
}

func TestRegistryTTLEviction(t *testing.T) {
	r := newTestRegistry(t, Config{SessionTTL: time.Minute})
	s := createPaperfix(t, r)
	if n := r.evictExpired(time.Now()); n != 0 {
		t.Fatalf("fresh session evicted (%d)", n)
	}
	if n := r.evictExpired(time.Now().Add(2 * time.Minute)); n != 1 {
		t.Fatalf("evicted %d sessions, want 1", n)
	}
	if _, ok := r.Get(s.ID); ok {
		t.Fatal("evicted session still resolvable")
	}
	if s.ctx.Err() == nil {
		t.Fatal("evicted session context not canceled")
	}
	if r.Metrics().SessionsEvicted != 1 {
		t.Fatal("eviction not counted")
	}
}

// A Get resets the TTL clock, keeping active sessions alive.
func TestRegistryGetTouches(t *testing.T) {
	r := newTestRegistry(t, Config{SessionTTL: time.Minute})
	s := createPaperfix(t, r)
	s.last.Store(time.Now().Add(-55 * time.Second).UnixNano())
	r.Get(s.ID)
	if n := r.evictExpired(time.Now().Add(30 * time.Second)); n != 0 {
		t.Fatal("recently touched session evicted")
	}
}

// Infer under an already-canceled context fails with the typed sentinel and
// the underlying context error.
func TestInferCanceled(t *testing.T) {
	r := newTestRegistry(t, Config{})
	s := createPaperfix(t, r)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := s.Infer(ctx, "simple")
	if !errors.Is(err, qerr.ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("underlying context.Canceled not preserved: %v", err)
	}
}

// Close reaps a feedback dialogue parked on an unanswered question.
func TestCloseReapsFeedback(t *testing.T) {
	r := NewRegistry(Config{})
	s := createPaperfix(t, r)
	if _, err := s.Infer(context.Background(), "topk"); err != nil {
		t.Fatal(err)
	}
	ev, err := s.StartFeedback(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Done {
		t.Skip("candidates collapsed without questions")
	}
	done := make(chan struct{})
	go func() { r.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Close hung on a pending feedback dialogue")
	}
}

// Starting a new dialogue aborts the previous one, and the new one runs to
// completion.
func TestFeedbackRestart(t *testing.T) {
	r := newTestRegistry(t, Config{})
	s := createPaperfix(t, r)
	if _, err := s.Infer(context.Background(), "topk"); err != nil {
		t.Fatal(err)
	}
	first, err := s.StartFeedback(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	second, err := s.StartFeedback(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !first.Done && !second.Done && second.Question == nil {
		t.Fatal("restarted dialogue returned no question")
	}
	// Drive the second dialogue to completion.
	for i := 0; !second.Done && i < 32; i++ {
		second, err = s.AnswerFeedback(context.Background(), false)
		if err != nil {
			t.Fatal(err)
		}
	}
	if !second.Done {
		t.Fatal("dialogue did not converge")
	}
	if s.Result() == nil {
		t.Fatal("no chosen query recorded")
	}
}

// A feedback request canceled before the question reaches the client must
// not strand the dialogue: the turn still runs to its question, which stays
// undelivered; a blind AnswerFeedback re-delivers it (without consuming the
// verdict), and the dialogue still converges.
func TestFeedbackCanceledRequestRecovers(t *testing.T) {
	r := newTestRegistry(t, Config{})
	s := createPaperfix(t, r)
	if _, err := s.Infer(context.Background(), "topk"); err != nil {
		t.Fatal(err)
	}
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.StartFeedback(canceled, 0); !errors.Is(err, qerr.ErrCanceled) {
		t.Fatalf("StartFeedback under a canceled request = %v, want ErrCanceled", err)
	}

	// The dialogue is live with an undelivered question. The answer must
	// not be consumed: it comes back as a redelivered event, served from
	// the finished turn without evaluating anything again.
	in := faults.NewInjector(1)
	restore := faults.Activate(in)
	ev, err := s.AnswerFeedback(context.Background(), true)
	restore()
	if err != nil {
		t.Fatal(err)
	}
	if n := evalHits(in); n != 0 {
		t.Fatalf("redelivery re-ran the turn: %d evaluator hits", n)
	}
	if !ev.Redelivered {
		t.Fatalf("answer with no delivered question consumed: %+v", ev)
	}
	if ev.Done || ev.Question == nil || ev.Questions != 1 {
		t.Fatalf("redelivered event is not the first question: %+v", ev)
	}
	for i := 0; !ev.Done && i < 32; i++ {
		ev, err = s.AnswerFeedback(context.Background(), false)
		if err != nil {
			t.Fatal(err)
		}
	}
	if !ev.Done {
		t.Fatal("dialogue did not converge after recovery")
	}
	if s.Result() == nil {
		t.Fatal("no chosen query recorded")
	}
}

// PendingFeedback re-reads the delivered-but-unanswered question without
// consuming anything, and the dialogue continues normally afterwards.
func TestPendingFeedbackIdempotentRead(t *testing.T) {
	r := newTestRegistry(t, Config{})
	s := createPaperfix(t, r)
	if _, err := s.Infer(context.Background(), "topk"); err != nil {
		t.Fatal(err)
	}
	ev, err := s.StartFeedback(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Done {
		t.Skip("candidates collapsed without questions")
	}
	for i := 0; i < 3; i++ {
		again, err := s.PendingFeedback(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if again.Done || again.Question != ev.Question || again.Questions != ev.Questions {
			t.Fatalf("pending read %d diverged: %+v vs %+v", i, again, ev)
		}
	}
	for i := 0; !ev.Done && i < 32; i++ {
		ev, err = s.AnswerFeedback(context.Background(), false)
		if err != nil {
			t.Fatal(err)
		}
	}
	if !ev.Done {
		t.Fatal("dialogue did not converge")
	}
}

// The janitor must not evict a session whose operation is still in flight,
// however stale its last-used clock; and completing the operation restarts
// the idle clock.
func TestEvictionSkipsBusySessions(t *testing.T) {
	r := newTestRegistry(t, Config{SessionTTL: time.Minute})
	s := createPaperfix(t, r)
	s.begin()
	s.last.Store(time.Now().Add(-time.Hour).UnixNano())
	if n := r.evictExpired(time.Now()); n != 0 {
		t.Fatalf("busy session evicted (%d)", n)
	}
	s.end()
	if n := r.evictExpired(time.Now()); n != 0 {
		t.Fatal("completing the operation did not reset the idle clock")
	}
	s.last.Store(time.Now().Add(-time.Hour).UnixNano())
	if n := r.evictExpired(time.Now()); n != 1 {
		t.Fatalf("idle expired session kept (%d)", n)
	}
}

func TestAnswerWithoutDialogue(t *testing.T) {
	r := newTestRegistry(t, Config{})
	s := createPaperfix(t, r)
	if _, err := s.AnswerFeedback(context.Background(), true); err == nil {
		t.Fatal("answer without a dialogue accepted")
	}
}
