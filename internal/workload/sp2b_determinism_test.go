package workload_test

import (
	"math/rand"
	"reflect"
	"testing"

	"questpro/internal/core"
	"questpro/internal/eval"
	"questpro/internal/workload/sampling"
	"questpro/internal/workload/sp2b"
)

// End-to-end pin of the kernel-rewrite acceptance bar: on an sp2b workload
// with an 8-explanation sample, the inferred union query and its evaluated
// result set are byte-identical across worker counts and across the lazy
// heap vs. the reference scan kernel — i.e. the incremental engine changes
// how fast the answer is computed, never the answer.
func TestSP2BInferenceByteIdenticalAcrossWorkers(t *testing.T) {
	cfg := sp2b.DefaultConfig()
	cfg.Persons, cfg.Articles, cfg.Inproceedings = 300, 500, 500
	g, err := sp2b.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ev := eval.New(g)
	var target = sp2b.Queries()[1].Query // q2: the benchmark's merge-heavy shape
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
