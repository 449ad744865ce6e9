package feedback_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"questpro/internal/core"
	"questpro/internal/eval"
	"questpro/internal/experiments"
	"questpro/internal/feedback"
	"questpro/internal/graph"
	"questpro/internal/provenance"
	"questpro/internal/qerr"
	"questpro/internal/query"
	"questpro/internal/workload/sampling"
)

// The transcript golden is the differential oracle of Algorithm 3: every
// case re-derives a seeded top-k candidate set, runs ChooseQuery over it and
// must reproduce the committed chosen index and transcript byte for byte.
// Regenerate (only when the dialogue's behaviour is meant to change) with
//
//	go test ./internal/feedback -run TestTranscriptGolden -update-transcripts
var updateTranscripts = flag.Bool("update-transcripts", false, "rewrite testdata/transcripts.golden")

const transcriptGolden = "testdata/transcripts.golden"

// transcriptCase is one recorded dialogue. Candidates fingerprints the
// candidate set's SPARQL, so drift in the inputs (inference, sampling) is
// reported as such rather than as a dialogue change.
type transcriptCase struct {
	Name       string               `json:"name"`
	Candidates string               `json:"candidates"`
	Chosen     int                  `json:"chosen"`
	Truncated  bool                 `json:"truncated,omitempty"`
	Transcript *feedback.Transcript `json:"transcript"`
}

// alternatingOracle answers exclude, include, exclude, ... regardless of
// the question: a deterministic user who is not consistent with any query.
type alternatingOracle struct{ n int }

func (o *alternatingOracle) ShouldInclude(context.Context, *eval.ResultWithProvenance) (bool, error) {
	o.n++
	return o.n%2 == 0, nil
}

// dialogueInput is one candidate set with everything ChooseQuery needs.
type dialogueInput struct {
	name   string
	ev     *eval.Evaluator
	ex     provenance.ExampleSet
	target *query.Union
	cands  []*query.Union
}

// benchInputs samples one example-set per catalog query of a generated
// workload at scale 0.35 and infers its top-k candidates. q8b is left out:
// its candidate sets take seconds per dialogue turn.
func benchInputs(t *testing.T, workload string) []dialogueInput {
	t.Helper()
	w, err := experiments.Load(workload, 0.35)
	if err != nil {
		t.Fatal(err)
	}
	var out []dialogueInput
	for qi, bq := range w.Queries {
		if bq.Name == "q8b" {
			continue
		}
		ev := w.Evaluator()
		n := 2 + qi%3
		exs, err := sampling.New(ev, bq.Query, rand.New(rand.NewSource(int64(qi+1)))).ExampleSet(bg, n)
		if err != nil {
			t.Fatalf("%s/%s: %v", workload, bq.Name, err)
		}
		out = append(out, dialogueInput{
			name:   fmt.Sprintf("%s/%s/n%d", workload, bq.Name, n),
			ev:     ev,
			ex:     exs,
			target: bq.Query,
			cands:  topK(t, exs),
		})
	}
	return out
}

// randomInputs builds candidate sets over small random ontologies: the
// target is a two-edge chain query, sampled for three explanations.
func randomInputs(t *testing.T) []dialogueInput {
	t.Helper()
	labels := []string{"p", "q", "r"}
	var out []dialogueInput
	for seed := int64(1); len(out) < 6 && seed < 64; seed++ {
		rng := rand.New(rand.NewSource(seed))
		o := graph.RandomOntology(rng, graph.RandomConfig{Nodes: 30, Edges: 110, Labels: labels})
		q := query.NewSimple()
		x := q.MustEnsureNode(query.Var("x"), "")
		y := q.MustEnsureNode(query.Var("y"), "")
		z := q.MustEnsureNode(query.Var("z"), "")
		q.MustAddEdge(x, y, labels[rng.Intn(len(labels))])
		q.MustAddEdge(y, z, labels[rng.Intn(len(labels))])
		q.SetProjected(x)
		target := query.NewUnion(q)
		ev := eval.New(o)
		exs, err := sampling.New(ev, target, rng).ExampleSet(bg, 3)
		if err != nil {
			continue // too few results for three explanations
		}
		cands := topK(t, exs)
		if len(cands) < 2 {
			continue
		}
		out = append(out, dialogueInput{
			name:   fmt.Sprintf("random/seed%d", seed),
			ev:     ev,
			ex:     exs,
			target: target,
			cands:  cands,
		})
	}
	return out
}

func topK(t *testing.T, exs provenance.ExampleSet) []*query.Union {
	t.Helper()
	opts := core.DefaultOptions()
	opts.K = 8
	cands, _, err := core.InferTopK(bg, exs, opts)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]*query.Union, len(cands))
	for i, c := range cands {
		out[i] = c.Query
	}
	return out
}

func fingerprint(cands []*query.Union) string {
	h := sha256.New()
	for _, c := range cands {
		h.Write([]byte(c.SPARQL()))
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// runTranscripts plays every input against an exact oracle, an alternating
// oracle and an exact oracle capped at one question.
func runTranscripts(t *testing.T) []transcriptCase {
	t.Helper()
	var inputs []dialogueInput
	inputs = append(inputs, benchInputs(t, "sp2b")...)
	inputs = append(inputs, benchInputs(t, "bsbm")...)
	inputs = append(inputs, randomInputs(t)...)
	var out []transcriptCase
	for _, in := range inputs {
		for _, mode := range []string{"exact", "alternating", "exact-max1"} {
			s := &feedback.Session{Ev: in.ev, Ex: in.ex}
			switch mode {
			case "alternating":
				s.Oracle = &alternatingOracle{}
			case "exact-max1":
				s.MaxQuestions = 1
				fallthrough
			default:
				s.Oracle = &feedback.ExactOracle{Ev: in.ev, Target: in.target}
			}
			idx, tr, err := s.ChooseQuery(bg, in.cands)
			truncated := errors.Is(err, qerr.ErrMaxQuestions)
			if err != nil && !truncated {
				t.Fatalf("%s/%s: %v", in.name, mode, err)
			}
			out = append(out, transcriptCase{
				Name:       in.name + "/" + mode,
				Candidates: fingerprint(in.cands),
				Chosen:     idx,
				Truncated:  truncated,
				Transcript: tr,
			})
		}
	}
	return out
}

func TestTranscriptGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("generates sp2b and bsbm workloads")
	}
	got := runTranscripts(t)
	path := filepath.FromSlash(transcriptGolden)
	if *updateTranscripts {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want []json.RawMessage
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d cases, golden has %d", len(got), len(want))
	}
	var questions, undistinguished, truncated int
	for i, c := range got {
		var w transcriptCase
		if err := json.Unmarshal(want[i], &w); err != nil {
			t.Fatal(err)
		}
		if c.Name != w.Name || c.Candidates != w.Candidates {
			t.Fatalf("case %d: inputs drifted: %s (%s), golden %s (%s)", i, c.Name, c.Candidates, w.Name, w.Candidates)
		}
		g, err := json.MarshalIndent(c, "    ", "  ")
		if err != nil {
			t.Fatal(err)
		}
		var wb bytes.Buffer
		if err := json.Indent(&wb, want[i], "    ", "  "); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(g, wb.Bytes()) {
			t.Errorf("%s: transcript diverged\ngot:  %s\nwant: %s", c.Name, g, wb.Bytes())
		}
		questions += len(c.Transcript.Questions)
		undistinguished += len(c.Transcript.Undistinguished)
		if c.Truncated {
			truncated++
		}
	}
	// The golden must keep exercising every branch of Algorithm 3.
	if questions == 0 || undistinguished == 0 || truncated == 0 {
		t.Fatalf("golden lost coverage: %d questions, %d undistinguished pairs, %d truncated cases",
			questions, undistinguished, truncated)
	}
	if !strings.Contains(string(raw), "random/") {
		t.Fatal("golden has no random-ontology case")
	}
}
