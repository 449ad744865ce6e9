// Command mkpool samples the example-sets the benchmark draws its
// dialogues from and writes them to pool/pool.json:
//
//	go -C dialoguebench run ./mkpool -o pool/pool.json
//
// The benchmark never runs it: it reads the committed file, so the inputs
// a seed gives stay the same while the program changes, and a change that
// makes a set cheaper shows as a gain instead of changing which sets are
// drawn. mkpool uses the program to sample provenance and, once, to keep
// out example-sets whose feedback start (Algorithm 3) needs more than
// stepCap matcher steps; those on q8b are kept apart as the tail.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"sort"
	"sync"

	"questpro/dialoguebench/pool"
	"questpro/internal/api"
	"questpro/internal/core"
	"questpro/internal/eval"
	"questpro/internal/experiments"
	"questpro/internal/feedback"
	"questpro/internal/ntriples"
	"questpro/internal/provenance"
	"questpro/internal/query"
	"questpro/internal/workload/sampling"
)

const (
	scale      = 0.35
	partialPct = 25 // share of a fragment's edges the user forgets
	// stepCap bounds the matcher work of one feedback start. Most sampled
	// sets need far less; q8b on sp2b has a long tail, up to sets whose
	// feedback start runs for minutes.
	stepCap = 3_000_000
	// heavySteps marks q8b's slow path: the ~300 ms feedback start the
	// ROADMAP names as the measured bottleneck.
	heavySteps = 2_000_000
	tailSets   = 3   // over-cap q8b sets kept for the traced run
	maxDraws   = 400 // per query, before mkpool gives up
)

// use is one way a general set is asked: its first n explanations, as
// fragments when partial.
type use struct {
	n       int
	partial bool
}

type plan struct {
	catalog string
	sets    int   // general sets per query
	uses    []use // every way the benchmark asks a general set
}

// plans must cover the benchmark's workloads: analyst-sessions asks sp2b
// sets with the counts of analystSlots, durable-sessions bsbm and dbpedia
// sets with 2 to 4, restart-recovery sp2b and bsbm sets with 2.
var plans = []plan{
	{catalog: "sp2b", sets: 8, uses: []use{{2, false}, {3, true}, {4, false}, {5, false}, {6, true}, {7, false}, {8, false}}},
	{catalog: "bsbm", sets: 4, uses: []use{{2, false}, {3, false}, {4, false}}},
	{catalog: "dbpedia", sets: 4, uses: []use{{2, false}, {3, false}, {4, false}}},
}

// slowQuery's general sets are only asked with two explanations; in
// analyst-sessions it is asked with its slow sets, one per slowSlots entry.
const slowQuery = "q8b"

var slowSlots = []use{{6, true}, {6, true}, {7, false}, {7, false}, {7, false}, {8, false}, {8, false}, {8, false}}

func main() {
	out := flag.String("o", "pool/pool.json", "output file")
	flag.Parse()
	p, err := build(context.Background())
	if err == nil {
		var b []byte
		if b, err = json.MarshalIndent(p, "", " "); err == nil {
			err = os.WriteFile(*out, append(b, '\n'), 0o644)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "mkpool:", err)
		os.Exit(1)
	}
}

func build(ctx context.Context) (*pool.Pool, error) {
	p := &pool.Pool{Scale: scale}
	for _, pl := range plans {
		w, err := experiments.Load(pl.catalog, scale)
		if err != nil {
			return nil, err
		}
		sum := sha256.Sum256([]byte(ntriples.Format(w.Ontology)))
		c := pool.Catalog{Name: pl.catalog, OntologySHA256: hex.EncodeToString(sum[:]), Queries: make([]pool.Query, len(w.Queries))}
		var wg sync.WaitGroup
		errs := make([]error, len(w.Queries))
		sem := make(chan struct{}, 2)
		for i := range w.Queries {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				sem <- struct{}{}
				defer func() { <-sem }()
				c.Queries[i], errs[i] = sampleQuery(ctx, w, i, pl)
				fmt.Fprintf(os.Stderr, "%s/%s: %d sets, %d slow, %d tail\n", pl.catalog, w.Queries[i].Name,
					len(c.Queries[i].Sets), len(c.Queries[i].Slow), len(c.Queries[i].Tail))
			}(i)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
		p.Catalogs = append(p.Catalogs, c)
	}
	return p, nil
}

func sampleQuery(ctx context.Context, w *experiments.Workload, qi int, pl plan) (pool.Query, error) {
	bq := w.Queries[qi]
	h := fnv.New64a()
	fmt.Fprintf(h, "%s/%s", w.Name, bq.Name)
	rng := rand.New(rand.NewSource(int64(h.Sum64())))
	s := sampling.New(w.Evaluator(), bq.Query, rng)
	rs, err := s.Results(ctx)
	if err != nil {
		return pool.Query{}, err
	}
	q := pool.Query{Name: bq.Name, Targets: append([]string(nil), rs...)}
	sort.Strings(q.Targets)
	m := &measurer{onto: w, targets: q.Targets}

	uses := pl.uses
	if bq.Name == slowQuery {
		uses = []use{{2, false}} // restart-recovery only
	}
	size, partial := 0, false
	for _, u := range uses {
		size, partial = max(size, u.n), partial || u.partial
	}
	draws := 0
	// draw samples n explanations, with their fragments when asked partial.
	draw := func(n int, partial bool) (pool.Set, error) {
		if draws++; draws > maxDraws {
			return pool.Set{}, fmt.Errorf("mkpool: %s/%s: no fitting set in %d draws", w.Name, bq.Name, maxDraws)
		}
		exs, err := s.ExampleSet(ctx, min(n, len(rs)))
		if err != nil {
			return pool.Set{}, err
		}
		var set pool.Set
		for _, ex := range exs {
			// Every explanation takes a degradation stream, partial or not,
			// so a set's draw does not depend on whether it is asked partial.
			frag, err := sampling.Degrade(ex, partialPct, rand.New(rand.NewSource(rng.Int63())))
			if err != nil {
				return pool.Set{}, err
			}
			set.Examples = append(set.Examples, api.Example{Triples: ntriples.Format(ex.Graph), Distinguished: ex.DistinguishedValue()})
			if !partial {
				continue
			}
			set.Fragments = append(set.Fragments, api.Example{
				Triples:       ntriples.Format(frag.Graph),
				Distinguished: frag.DistinguishedValue(),
				Partial:       &api.PartialSpec{MissingEdges: frag.MissingEdges},
			})
		}
		return set, nil
	}

	for len(q.Sets) < pl.sets {
		set, err := draw(size, partial)
		if err != nil {
			return q, err
		}
		fits := true
		for _, u := range uses {
			steps, err := m.steps(ctx, set.Prefix(u.n, u.partial))
			if err != nil {
				return q, err
			}
			if steps > stepCap {
				fits = false
				break
			}
		}
		if fits {
			q.Sets = append(q.Sets, set)
		}
	}
	if bq.Name != slowQuery {
		return q, nil
	}
	for _, u := range slowSlots {
		for {
			set, err := draw(u.n, u.partial)
			if err != nil {
				return q, err
			}
			set.Partial = u.partial
			steps, err := m.steps(ctx, set.Prefix(u.n, u.partial))
			if err != nil {
				return q, err
			}
			if steps > stepCap {
				if len(q.Tail) < tailSets {
					q.Tail = append(q.Tail, set)
				}
				continue
			}
			if steps >= heavySteps {
				set.Steps = steps
				q.Slow = append(q.Slow, set)
				break
			}
		}
	}
	return q, nil
}

// measurer replays a dialogue's inference and feedback start in-process.
type measurer struct {
	onto    *experiments.Workload
	targets []string
}

// steps returns the matcher steps Algorithm 3 spends on the wire examples,
// metered up to just past stepCap.
func (m *measurer) steps(ctx context.Context, wire []api.Example) (int64, error) {
	opts := core.DefaultOptions()
	var exs provenance.ExampleSet
	var frags provenance.PartialExampleSet
	for _, e := range wire {
		g, err := ntriples.ParseString(e.Triples)
		if err != nil {
			return 0, err
		}
		if e.Partial != nil {
			p, err := provenance.NewPartialByValue(g, e.Distinguished, e.Partial.MissingEdges)
			if err != nil {
				return 0, err
			}
			frags = append(frags, p)
			continue
		}
		ex, err := provenance.NewByValue(g, e.Distinguished)
		if err != nil {
			return 0, err
		}
		exs = append(exs, ex)
	}
	if frags != nil {
		var err error
		if exs, _, err = core.CompleteExamples(ctx, m.onto.Ontology, frags, opts); err != nil {
			return 0, err
		}
	}
	cands, _, err := core.InferTopK(ctx, exs, opts)
	if err != nil {
		return 0, err
	}
	qs := make([]*query.Union, len(cands))
	for i, cd := range cands {
		qs[i] = cd.Query
	}
	meter := eval.Guard{MaxSteps: stepCap + 1}.NewMeter()
	fs := &feedback.Session{Ev: eval.New(m.onto.Ontology).Guarded(meter), Oracle: oracle(m.targets), Ex: exs}
	if _, _, err = fs.ChooseQuery(ctx, qs); err != nil && !meter.Exhausted() {
		return 0, err
	}
	return meter.Snapshot().Steps, nil
}

// oracle is the exact oracle: it includes a result iff the target query
// returns it.
type oracle []string

func (o oracle) ShouldInclude(_ context.Context, res *eval.ResultWithProvenance) (bool, error) {
	i := sort.SearchStrings(o, res.Value)
	return i < len(o) && o[i] == res.Value, nil
}
