package main

// The kill -9 chaos harness (`make crash`): build the real questprod
// binary, park a feedback dialogue mid-flight, SIGKILL the process — no
// drain, no flush, the hardest crash the OS offers — restart it on the
// same -data-dir, and assert the recovery contract end to end:
//
//   - the restarted server re-serves the exact pending question, and
//     re-reading it is idempotent;
//   - finishing the dialogue yields the byte-identical question sequence
//     and final SPARQL an uninterrupted session produces;
//   - the session's cumulative stats survived the crash.
//
// This is the integration proof of DESIGN.md §12's crash-consistency
// argument: every state change is committed by an atomically renamed,
// fsynced snapshot before its HTTP response, so the client's view and the
// disk's view never diverge by more than an unacknowledged operation.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	"questpro/internal/api"
	qpclient "questpro/internal/client"
	"questpro/internal/ntriples"
	"questpro/internal/paperfix"
)

// buildQuestprod compiles this package's binary once per test run, with
// -race when the harness itself runs under the detector.
func buildQuestprod(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "questprod")
	args := []string{"build"}
	if raceEnabled {
		args = append(args, "-race")
	}
	args = append(args, "-o", bin, ".")
	cmd := exec.Command("go", args...)
	cmd.Env = os.Environ()
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building questprod: %v\n%s", err, out)
	}
	return bin
}

// server is one child questprod process under harness control.
type server struct {
	cmd  *exec.Cmd
	base string
	logs *bytes.Buffer // full child stderr, for failure forensics
}

// startServer launches the binary on an OS-assigned port with dataDir
// persistence and blocks until the JSON "listening" record reveals the
// resolved address and /healthz answers.
func startServer(t *testing.T, bin, dataDir string) *server {
	t.Helper()
	cmd := exec.Command(bin,
		"-addr", "127.0.0.1:0",
		"-data-dir", dataDir,
		"-log-format", "json",
		"-session-ttl", "10m",
	)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatalf("starting questprod: %v", err)
	}
	s := &server{cmd: cmd, logs: &bytes.Buffer{}}
	addrc := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Bytes()
			s.logs.Write(line)
			s.logs.WriteByte('\n')
			var rec struct {
				Msg  string `json:"msg"`
				Addr string `json:"addr"`
			}
			if json.Unmarshal(line, &rec) == nil && rec.Msg == "listening" && rec.Addr != "" {
				select {
				case addrc <- rec.Addr:
				default:
				}
			}
		}
	}()
	select {
	case addr := <-addrc:
		s.base = "http://" + addr
	case <-time.After(30 * time.Second):
		cmd.Process.Kill()
		t.Fatalf("questprod never logged its listen address; logs:\n%s", s.logs)
	}
	cl := s.client(t)
	deadline := time.Now().Add(15 * time.Second)
	for {
		if _, err := cl.Stats(context.Background(), "probe"); err != nil {
			// Any well-formed API error (404 for the fake id) means the
			// server is up; only transport errors keep us polling.
			var ae *qpclient.APIError
			if errors.As(err, &ae) {
				return s
			}
		}
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			t.Fatalf("questprod never became healthy; logs:\n%s", s.logs)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// client builds a questpro client against the child server.
func (s *server) client(t *testing.T) *qpclient.Client {
	t.Helper()
	return qpclient.New(qpclient.Config{
		BaseURL:        s.base,
		MaxRetries:     4,
		BaseDelay:      20 * time.Millisecond,
		MaxDelay:       500 * time.Millisecond,
		AttemptTimeout: 10 * time.Second,
		Seed:           1,
	})
}

// kill SIGKILLs the child — the crash under test.
func (s *server) kill(t *testing.T) {
	t.Helper()
	if err := s.cmd.Process.Kill(); err != nil {
		t.Fatalf("kill -9: %v", err)
	}
	s.cmd.Wait() // reap; the error is the expected "signal: killed"
}

// stop shuts the child down gracefully (end-of-test cleanup).
func (s *server) stop() {
	s.cmd.Process.Kill()
	s.cmd.Wait()
}

// paperfixWireExamples renders the running example's explanations in the
// wire format.
func paperfixWireExamples() []api.Example {
	o := paperfix.Ontology()
	var exs []api.Example
	for _, e := range paperfix.Explanations(o) {
		exs = append(exs, api.Example{
			Triples:       ntriples.Format(e.Graph),
			Distinguished: e.DistinguishedValue(),
		})
	}
	return exs
}

// driveToFirstQuestion creates a session, submits examples, runs a top-k
// inference and starts the dialogue, returning the session id and first
// event.
func driveToFirstQuestion(t *testing.T, cl *qpclient.Client) (string, *api.FeedbackResponse) {
	t.Helper()
	ctx := context.Background()
	id, err := cl.CreateSession(ctx, ntriples.Format(paperfix.Ontology()), nil)
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	if err := cl.SetExamples(ctx, id, paperfixWireExamples()); err != nil {
		t.Fatalf("examples: %v", err)
	}
	if _, err := cl.Infer(ctx, id, "topk", 0); err != nil {
		t.Fatalf("infer: %v", err)
	}
	ev, err := cl.StartFeedback(ctx, id, 0)
	if err != nil {
		t.Fatalf("feedback: %v", err)
	}
	return id, ev
}

// finishAllFalse answers "exclude" until the dialogue decides, returning
// the question transcript (starting from ev's question) and final SPARQL.
func finishAllFalse(t *testing.T, cl *qpclient.Client, id string, ev *api.FeedbackResponse) ([]string, string) {
	t.Helper()
	var qs []string
	for i := 0; !ev.Done; i++ {
		if i > 64 {
			t.Fatal("dialogue did not converge in 64 questions")
		}
		qs = append(qs, ev.Result)
		var err error
		if ev, err = cl.AnswerFeedback(context.Background(), id, false); err != nil {
			t.Fatalf("answer: %v", err)
		}
	}
	if ev.SPARQL == "" {
		t.Fatal("dialogue decided without a query")
	}
	return qs, ev.SPARQL
}

func TestCrashRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and kills real server processes")
	}
	bin := buildQuestprod(t)
	ctx := context.Background()

	// Control: one uninterrupted session, for the byte-identical target.
	ctrlDir := t.TempDir()
	ctrl := startServer(t, bin, ctrlDir)
	defer ctrl.stop()
	ctrlClient := ctrl.client(t)
	ctrlID, ctrlEv := driveToFirstQuestion(t, ctrlClient)
	if ctrlEv.Done {
		t.Skip("candidates collapsed without questions; nothing to interrupt")
	}
	wantQuestions, wantSPARQL := finishAllFalse(t, ctrlClient, ctrlID, ctrlEv)
	if len(wantQuestions) < 2 {
		t.Skipf("dialogue asks only %d question(s); cannot crash mid-dialogue", len(wantQuestions))
	}
	ctrl.stop()

	// Victim: park the dialogue on question 2 (one answer consumed, the
	// next question delivered), then kill -9.
	dataDir := t.TempDir()
	v1 := startServer(t, bin, dataDir)
	cl := v1.client(t)
	id, ev := driveToFirstQuestion(t, cl)
	if ev.Done || ev.Result != wantQuestions[0] {
		v1.stop()
		t.Fatalf("first question = %+v, control asked %q", ev, wantQuestions[0])
	}
	ev, err := cl.AnswerFeedback(ctx, id, false)
	if err != nil {
		v1.stop()
		t.Fatalf("answer 1: %v", err)
	}
	if ev.Done || ev.Result != wantQuestions[1] {
		v1.stop()
		t.Fatalf("second question = %+v, control asked %q", ev, wantQuestions[1])
	}
	v1.kill(t)

	// Restart on the same data dir. The client's next fetch must be
	// idempotent: the same question 2, as many times as it asks.
	v2 := startServer(t, bin, dataDir)
	defer v2.stop()
	cl2 := v2.client(t)
	var pend *api.FeedbackResponse
	for i := 0; i < 2; i++ {
		if pend, err = cl2.PendingFeedback(ctx, id); err != nil {
			t.Fatalf("pending read %d after restart: %v\nlogs:\n%s", i, err, v2.logs)
		}
		if pend.Done || pend.Result != wantQuestions[1] {
			t.Fatalf("pending read %d = %+v, want question %q", i, pend, wantQuestions[1])
		}
	}

	// Finish: transcript and final query must match the control exactly.
	rest, gotSPARQL := finishAllFalse(t, cl2, id, pend)
	got := append([]string{wantQuestions[0]}, rest...)
	if len(got) != len(wantQuestions) {
		t.Fatalf("crashed run asked %d questions, control asked %d\n got: %q\nwant: %q",
			len(got), len(wantQuestions), got, wantQuestions)
	}
	for i := range wantQuestions {
		if got[i] != wantQuestions[i] {
			t.Fatalf("question %d = %q, control asked %q", i, got[i], wantQuestions[i])
		}
	}
	if gotSPARQL != wantSPARQL {
		t.Fatalf("final SPARQL diverged after crash recovery:\n%s\n--- control ---\n%s", gotSPARQL, wantSPARQL)
	}

	// The pre-crash inference survived in the session's counters.
	st, err := cl2.Stats(ctx, id)
	if err != nil {
		t.Fatalf("stats after recovery: %v", err)
	}
	if st.Infers != 1 || !st.HasQuery {
		t.Fatalf("stats lost across the crash: %+v", st)
	}
}

// TestCrashRecoverySessionNotFound pins the client-facing failure mode the
// durable path prevents: without -data-dir nothing survives, and after a
// kill -9 the typed ErrSessionNotFound tells the client to recreate.
func TestCrashRecoverySessionNotFound(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and kills real server processes")
	}
	bin := buildQuestprod(t)
	ctx := context.Background()
	dir := t.TempDir()
	v1 := startServer(t, bin, dir)
	cl := v1.client(t)
	id, err := cl.CreateSession(ctx, ntriples.Format(paperfix.Ontology()), nil)
	if err != nil {
		t.Fatal(err)
	}
	v1.kill(t)

	// A fresh, EMPTY data dir: the restarted server has nothing to restore.
	v2 := startServer(t, bin, t.TempDir())
	defer v2.stop()
	_, err = v2.client(t).Stats(ctx, id)
	if !errors.Is(err, qpclient.ErrSessionNotFound) {
		t.Fatalf("stats of a lost session = %v, want ErrSessionNotFound", err)
	}
}
