package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"questpro/internal/api"
	"questpro/internal/core"
	"questpro/internal/eval"
	"questpro/internal/feedback"
	"questpro/internal/graph"
	"questpro/internal/ntriples"
	"questpro/internal/provenance"
	"questpro/internal/query"
	"questpro/internal/service"
)

// Transcript is what a user sees of one dialogue: the questions in order
// and the SPARQL the dialogue settles on. Over HTTP it must equal the
// control computed in-process for the same inputs.
type Transcript struct {
	Questions []string `json:"questions"`
	SPARQL    string   `json:"sparql"`
}

// Equal reports whether two transcripts match question for question.
func (t Transcript) Equal(o Transcript) bool {
	if t.SPARQL != o.SPARQL || len(t.Questions) != len(o.Questions) {
		return false
	}
	for i := range t.Questions {
		if t.Questions[i] != o.Questions[i] {
			return false
		}
	}
	return true
}

// includes is the exact oracle: does the target query return value?
func (d *DialogueInput) includes(value string) bool {
	i := sort.SearchStrings(d.Targets, value)
	return i < len(d.Targets) && d.Targets[i] == value
}

// maxQuestions guards the drivers against a dialogue that never ends;
// Algorithm 3 asks at most one question per eliminated candidate.
const maxQuestions = 64

// Probe is the feedback layer measured in-process: Algorithm 3 replayed
// through feedback.Session.ChooseQuery with an instant oracle, so the time
// between oracle calls is pure question computation.
type Probe struct {
	Turns           int       // candidate pairs examined
	Undistinguished int       // pairs whose difference queries were empty both ways
	ComputeMs       []float64 // time before each oracle call and before the decision
}

// controlSet holds one control per generated dialogue, indexed like
// Inputs.Sessions[i].Dialogues[j].
type controlSet [][]Transcript

// decodeExamples mirrors the service's examples handler: a set with any
// partial example is submitted as fragments, otherwise as full provenance.
func decodeExamples(exs []api.Example) (provenance.ExampleSet, provenance.PartialExampleSet, error) {
	partial := false
	for _, e := range exs {
		partial = partial || e.Partial != nil
	}
	var full provenance.ExampleSet
	var frags provenance.PartialExampleSet
	for i, e := range exs {
		g, err := ntriples.ParseString(e.Triples)
		if err != nil {
			return nil, nil, fmt.Errorf("example %d: %w", i, err)
		}
		if !partial {
			ex, err := provenance.NewByValue(g, e.Distinguished)
			if err != nil {
				return nil, nil, fmt.Errorf("example %d: %w", i, err)
			}
			full = append(full, ex)
			continue
		}
		missing := 0
		if e.Partial != nil {
			missing = e.Partial.MissingEdges
		}
		p, err := provenance.NewPartialByValue(g, e.Distinguished, missing)
		if err != nil {
			return nil, nil, fmt.Errorf("example %d: %w", i, err)
		}
		frags = append(frags, p)
	}
	return full, frags, nil
}

// controlRun computes the expected transcript of every dialogue through an
// in-process service.Registry with the options questprod applies to a
// create request that sets none. With probe set it also replays each
// dialogue's Algorithm 3 through feedback.Session for the feedback-layer
// metrics.
type controlRun struct {
	probe  bool
	probes []Probe
	spans  []benchSpan // in-process calls, kinds "registry.*" and "feedback.choose"
}

func (cr *controlRun) controls(ctx context.Context, in *Inputs) (controlSet, error) {
	// Controls of different sessions run in parallel, sharing the worker
	// budget without a shedding deadline; the probe's timings need a quiet
	// machine, so probing runs one session at a time.
	reg := service.NewRegistry(service.Config{DisableTracing: true, AdmissionWait: -1})
	defer reg.Close()
	ontos := map[string]*graph.Graph{}
	for name, text := range in.Ontologies {
		g, err := ntriples.ParseString(text)
		if err != nil {
			return nil, fmt.Errorf("control: parsing %s: %w", name, err)
		}
		ontos[name] = g
	}
	opts := core.DefaultOptions()
	out := make(controlSet, len(in.Sessions))
	parts := make([]controlRun, len(in.Sessions))
	workers := runtime.NumCPU()
	if cr.probe {
		workers = 1
	}
	err := forEach(workers, len(in.Sessions), func(i int) error {
		si := in.Sessions[i]
		part := &parts[i]
		part.probe = cr.probe
		s, err := reg.Create(ontos[si.Ontology], opts)
		if err != nil {
			return fmt.Errorf("control: create: %w", err)
		}
		defer reg.Delete(s.ID)
		for j := range si.Dialogues {
			d := &si.Dialogues[j]
			tr, err := part.dialogue(ctx, s, ontos[si.Ontology], d)
			if err != nil {
				return fmt.Errorf("control: session %d dialogue %d (%s): %w", i, j, d.Query, err)
			}
			out[i] = append(out[i], tr)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, p := range parts {
		cr.probes = append(cr.probes, p.probes...)
		cr.spans = append(cr.spans, p.spans...)
	}
	return out, nil
}

// forEach runs f(0..n-1) on up to workers goroutines and returns the
// errors joined.
func forEach(workers, n int, f func(i int) error) error {
	var next atomic.Int64
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := range errs {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n && errs[w] == nil; i = int(next.Add(1) - 1) {
				errs[w] = f(i)
			}
		}(w)
	}
	wg.Wait()
	return errors.Join(errs...)
}

func (cr *controlRun) dialogue(ctx context.Context, s *service.Session, onto *graph.Graph, d *DialogueInput) (Transcript, error) {
	var tr Transcript
	full, frags, err := decodeExamples(d.Examples)
	if err != nil {
		return tr, err
	}
	span := func(kind string) func() {
		t := time.Now()
		return func() { cr.spans = append(cr.spans, newSpan(kind, t, err)) }
	}
	end := span("registry.examples")
	if frags != nil {
		err = s.SetPartialExamples(ctx, frags)
	} else {
		err = s.SetExamples(ctx, full)
	}
	end()
	if err != nil {
		return tr, fmt.Errorf("examples: %w", err)
	}
	end = span("registry.infer")
	res, err := s.Infer(ctx, "topk")
	end()
	if err != nil {
		return tr, fmt.Errorf("infer: %w", err)
	}
	end = span("registry.feedback")
	ev, err := s.StartFeedback(ctx, 0)
	for err == nil && !ev.Done {
		if len(tr.Questions) >= maxQuestions {
			err = fmt.Errorf("no decision after %d questions", maxQuestions)
			break
		}
		tr.Questions = append(tr.Questions, ev.Question.Value)
		ev, err = s.AnswerFeedback(ctx, d.includes(ev.Question.Value))
	}
	end()
	if err != nil {
		return tr, fmt.Errorf("feedback: %w", err)
	}
	tr.SPARQL = ev.Query.SPARQL()
	if cr.probe {
		exs := full
		if frags != nil {
			exs = res.Completed
		}
		cands := make([]*query.Union, len(res.Candidates))
		for i, c := range res.Candidates {
			cands[i] = c.Query
		}
		end = span("feedback.choose")
		p, err := probeFeedback(ctx, onto, exs, cands, d)
		end()
		if err != nil {
			return tr, fmt.Errorf("probe: %w", err)
		}
		cr.probes = append(cr.probes, p)
	}
	return tr, nil
}

// timingOracle answers instantly and records when it was asked, so the
// gaps between calls are the computation Algorithm 3 does per question.
type timingOracle struct {
	d    *DialogueInput
	last time.Time
	gaps []float64
}

func (o *timingOracle) ShouldInclude(_ context.Context, res *eval.ResultWithProvenance) (bool, error) {
	o.lap()
	return o.d.includes(res.Value), nil
}

func (o *timingOracle) lap() {
	now := time.Now()
	o.gaps = append(o.gaps, float64(now.Sub(o.last).Nanoseconds())/1e6)
	o.last = now
}

func probeFeedback(ctx context.Context, onto *graph.Graph, exs provenance.ExampleSet, cands []*query.Union, d *DialogueInput) (Probe, error) {
	o := &timingOracle{d: d}
	fs := &feedback.Session{Ev: eval.New(onto), Oracle: o, Ex: exs}
	o.last = time.Now()
	_, tr, err := fs.ChooseQuery(ctx, cands)
	o.lap()
	if err != nil {
		return Probe{}, err
	}
	return Probe{
		Turns:           len(tr.Questions) + len(tr.Undistinguished),
		Undistinguished: len(tr.Undistinguished),
		ComputeMs:       o.gaps,
	}, nil
}

// tailGuard bounds the matcher steps each tail set may spend when the
// traced run times it: a set the program settles sooner stops early, so a
// fix to q8b's tail shows as less time.
const tailGuard = 10_000_000

// timeTail runs inference and Algorithm 3 in-process, with the exact
// oracle answering instantly, on each tail set under tailGuard. It returns
// each set's time in ms and the matcher steps Algorithm 3 spent.
func timeTail(ctx context.Context, in *Inputs) (ms, steps []float64, err error) {
	if len(in.Tail) == 0 {
		return nil, nil, nil
	}
	onto, err := ntriples.ParseString(in.Ontologies[in.Sessions[0].Ontology])
	if err != nil {
		return nil, nil, err
	}
	opts := core.DefaultOptions()
	for i := range in.Tail {
		d := &in.Tail[i]
		exs, frags, err := decodeExamples(d.Examples)
		if err != nil {
			return nil, nil, err
		}
		t := time.Now()
		if frags != nil {
			if exs, _, err = core.CompleteExamples(ctx, onto, frags, opts); err != nil {
				return nil, nil, err
			}
		}
		cands, _, err := core.InferTopK(ctx, exs, opts)
		if err != nil {
			return nil, nil, err
		}
		qs := make([]*query.Union, len(cands))
		for j, c := range cands {
			qs[j] = c.Query
		}
		meter := eval.Guard{MaxSteps: tailGuard}.NewMeter()
		fs := &feedback.Session{Ev: eval.New(onto).Guarded(meter), Oracle: &timingOracle{d: d}, Ex: exs}
		if _, _, err := fs.ChooseQuery(ctx, qs); err != nil && !meter.Exhausted() {
			return nil, nil, err
		}
		ms = append(ms, float64(time.Since(t).Nanoseconds())/1e6)
		steps = append(steps, float64(meter.Snapshot().Steps))
	}
	return ms, steps, nil
}
