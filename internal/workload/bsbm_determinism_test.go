package workload_test

import (
	"math/rand"
	"reflect"
	"testing"

	"questpro/internal/core"
	"questpro/internal/eval"
	"questpro/internal/workload/bsbm"
	"questpro/internal/workload/sampling"
)

// The bsbm counterpart of TestSP2BInferenceByteIdenticalAcrossWorkers: on
// the densest workload's merge-heavy star query (q2v0, the benchmerge
// acceptance target), the inferred union query's SPARQL and its evaluated
// result set are byte-identical across worker counts 1/4/16 and across the
// lazy-heap vs. reference-scan kernels. Together with the sp2b variant this
// pins the CSR-substrate determinism invariant end to end: interning,
// adjacency order, candidate ranking and buffer pooling change how fast the
// answer is computed, never the answer.
func TestBSBMInferenceByteIdenticalAcrossWorkers(t *testing.T) {
	cfg := bsbm.DefaultConfig()
	cfg.Products, cfg.Reviewers = 500, 150
	g, err := bsbm.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ev := eval.New(g)
	var target = bsbm.Queries()[0].Query
	for _, bq := range bsbm.Queries() {
		if bq.Name == "q2v0" { // the wide product-details star
			target = bq.Query
		}
	}
	sampler := sampling.New(ev, target, rand.New(rand.NewSource(5)))
	exs, err := sampler.ExampleSet(bg, 8)
	if err != nil {
		t.Fatal(err)
	}

	var baseSPARQL string
	var baseResults []string
	first := true
	for _, workers := range []int{1, 4, 16} {
		for _, ref := range []bool{false, true} {
			opts := core.DefaultOptions()
			opts.Workers = workers
			opts.ReferenceScan = ref
			u, _, err := core.InferUnion(bg, exs, opts)
			if err != nil {
				t.Fatalf("workers=%d ref=%v: %v", workers, ref, err)
			}
			rev := eval.New(g)
			rev.Workers = workers
			rs, err := rev.Results(bg, u)
			if err != nil {
				t.Fatalf("workers=%d ref=%v: results: %v", workers, ref, err)
			}
			if first {
				baseSPARQL, baseResults = u.SPARQL(), rs
				first = false
				continue
			}
			if u.SPARQL() != baseSPARQL {
				t.Fatalf("workers=%d ref=%v: inferred query diverged:\n%s\nvs\n%s",
					workers, ref, u.SPARQL(), baseSPARQL)
			}
			if !reflect.DeepEqual(rs, baseResults) {
				t.Fatalf("workers=%d ref=%v: result set diverged", workers, ref)
			}
		}
	}
}
