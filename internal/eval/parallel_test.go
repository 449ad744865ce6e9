package eval_test

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"questpro/internal/eval"
	"questpro/internal/graph"
	"questpro/internal/obs"
	"questpro/internal/paperfix"
	"questpro/internal/query"
)

// The tests below run the production sharded probe path — ResultsSimple
// and Results on an evaluator with Workers > 1 — against a single-worker
// evaluator, which always probes sequentially.

// withWorkers returns a fresh evaluator over o with the given pool size.
func withWorkers(o *graph.Graph, workers int) *eval.Evaluator {
	ev := eval.New(o)
	ev.Workers = workers
	return ev
}

// probeMode runs ResultsSimple under a root span and reports which probe
// path its eval.results span took ("seq" or "sharded").
func probeMode(t *testing.T, ev *eval.Evaluator, q *query.Simple) ([]string, string) {
	t.Helper()
	defer obs.SetEnabled(obs.Enabled())
	obs.SetEnabled(true)
	ctx, root := obs.NewRoot(context.Background(), "test")
	rs, err := ev.ResultsSimple(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	root.Finish()
	mode := ""
	root.Snapshot().Walk(func(n *obs.Node) {
		if n.Kind == "eval.results" {
			mode = n.Labels["probe"]
		}
	})
	return rs, mode
}

// A multi-worker evaluator agrees with a single-worker one on the running
// example.
func TestResultsParallelSmall(t *testing.T) {
	o := paperfix.Ontology()
	seqEv, parEv := withWorkers(o, 1), withWorkers(o, 4)
	for _, q := range []*query.Simple{paperfix.Q1(), paperfix.Q3(), paperfix.Q4()} {
		seq, err := seqEv.ResultsSimple(bg, q)
		if err != nil {
			t.Fatal(err)
		}
		par, err := parEv.ResultsSimple(bg, q)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(seq, par) {
			t.Fatalf("parallel %v != sequential %v", par, seq)
		}
	}
}

// A ground projected node is answered by one existence check, whatever the
// pool size.
func TestResultsParallelGround(t *testing.T) {
	o := paperfix.Ontology()
	exs := paperfix.Explanations(o)
	ground, err := query.FromExplanation(exs[0].Graph, exs[0].Distinguished)
	if err != nil {
		t.Fatal(err)
	}
	res, err := withWorkers(o, 8).ResultsSimple(bg, ground)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, []string{"Alice"}) {
		t.Fatalf("ground parallel results = %v", res)
	}
}

// Property: on graphs large enough to cross the parallel threshold,
// ResultsSimple with Workers takes the sharded path and agrees exactly with
// the sequential loop.
func TestResultsParallelAgreesProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		o := graph.RandomOntology(rng, graph.RandomConfig{
			Nodes: 300, Edges: 1200, Labels: []string{"p", "q"},
		})
		// A 2-edge variable pattern: plenty of candidates.
		q := query.NewSimple()
		a := q.MustEnsureNode(query.Var("a"), "")
		b := q.MustEnsureNode(query.Var("b"), "")
		c := q.MustEnsureNode(query.Var("c"), "")
		q.MustAddEdge(a, b, "p")
		q.MustAddEdge(b, c, "q")
		q.SetProjected(b)

		seq, seqMode := probeMode(t, withWorkers(o, 1), q)
		par, parMode := probeMode(t, withWorkers(o, 3), q)
		if seqMode != "seq" || parMode != "sharded" {
			t.Errorf("seed %d: probe paths %q/%q, want seq/sharded", seed, seqMode, parMode)
			return false
		}
		return reflect.DeepEqual(seq, par)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestResultsUnionParallel(t *testing.T) {
	o := paperfix.Ontology()
	u := query.NewUnion(paperfix.Q3(), paperfix.Q4())
	seq, err := withWorkers(o, 1).Results(bg, u)
	if err != nil {
		t.Fatal(err)
	}
	par, err := withWorkers(o, 4).Results(bg, u)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("parallel union %v != sequential %v", par, seq)
	}
}

// A union of many branches, each below the parallel threshold, gives the
// same results for every pool size.
func TestResultsUnionParallelManySmallBranches(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	o := graph.RandomOntology(rng, graph.RandomConfig{
		Nodes: 120, Edges: 400, Labels: []string{"p", "q"},
	})
	var branches []*query.Simple
	for _, n := range o.Nodes() {
		if len(branches) == 40 {
			break
		}
		q := query.NewSimple()
		x := q.MustEnsureNode(query.Var("x"), "")
		k := q.MustEnsureNode(query.Const(n.Value), "")
		q.MustAddEdge(x, k, "p")
		q.SetProjected(x)
		branches = append(branches, q)
	}
	u := query.NewUnion(branches...)
	seq, err := withWorkers(o, 1).Results(bg, u)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8, 0} {
		par, err := withWorkers(o, workers).Results(bg, u)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(seq, par) {
			t.Fatalf("workers=%d: parallel union %v != sequential %v", workers, par, seq)
		}
	}
}

// Step-budget exhaustion on the sharded path surfaces the same error the
// sequential path reports, with no partial results.
func TestResultsUnionParallelBudgetError(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	o := graph.RandomOntology(rng, graph.RandomConfig{
		Nodes: 200, Edges: 900, Labels: []string{"p"},
	})
	q := query.NewSimple()
	a := q.MustEnsureNode(query.Var("a"), "")
	b := q.MustEnsureNode(query.Var("b"), "")
	c := q.MustEnsureNode(query.Var("c"), "")
	q.MustAddEdge(a, b, "p")
	q.MustAddEdge(b, c, "p")
	q.SetProjected(a)
	u := query.NewUnion(q, q.Clone())

	for _, workers := range []int{1, 4} {
		ev := withWorkers(o, workers)
		ev.MaxSteps = 3
		rs, err := ev.Results(bg, u)
		if !errors.Is(err, eval.ErrBudget) {
			t.Fatalf("workers=%d: union error = %v, want budget exhaustion", workers, err)
		}
		if rs != nil {
			t.Fatalf("workers=%d: partial results returned alongside error: %v", workers, rs)
		}
	}
}

func TestResultsParallelNoProjected(t *testing.T) {
	ev := withWorkers(paperfix.Ontology(), 2)
	q := query.NewSimple()
	q.MustEnsureNode(query.Var("x"), "")
	if _, err := ev.ResultsSimple(bg, q); err == nil {
		t.Fatal("missing projected node not reported")
	}
}

func BenchmarkResultsParallelVsSequential(b *testing.B) {
	rng := rand.New(rand.NewSource(31))
	o := graph.RandomOntology(rng, graph.RandomConfig{
		Nodes: 2000, Edges: 9000, Labels: []string{"p", "q"},
	})
	q := query.NewSimple()
	a := q.MustEnsureNode(query.Var("a"), "")
	m := q.MustEnsureNode(query.Var("m"), "")
	c := q.MustEnsureNode(query.Var("c"), "")
	q.MustAddEdge(a, m, "p")
	q.MustAddEdge(m, c, "q")
	q.SetProjected(m)
	for _, bc := range []struct {
		name    string
		workers int
	}{{"sequential", 1}, {"parallel", 0}} {
		ev := withWorkers(o, bc.workers)
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := ev.ResultsSimple(bg, q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
