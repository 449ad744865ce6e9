package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"

	"questpro/dialoguebench/pool"
	"questpro/internal/api"
	"questpro/internal/experiments"
	"questpro/internal/ntriples"
)

// Workload names. Later changes cite them, so they are part of the
// benchmark's contract.
const (
	wlAnalyst  = "analyst-sessions"
	wlDurable  = "durable-sessions"
	wlRecovery = "restart-recovery"
)

var workloadNames = []string{wlAnalyst, wlDurable, wlRecovery}

// Inputs are drawn from the committed pool (package pool), not sampled
// here: Generate calls nothing of the program but the ontology generators,
// whose output the pool pins by hash. So the inputs a seed gives stay the
// same while the evaluator, inference or feedback code changes.
//
// Each workload is a fixed design over the pool (which query, which set,
// how many explanations, partial or not): every seed runs the same
// multiset of dialogues, and the seed only groups them into sessions and
// orders them. The work a run measures then does not change with the
// seed, so run-to-run spread is the host's, not the draw's.
const (
	analystSessions = 8 // rows of an 8×8 Latin square over the sp2b queries and analystSlots
	recoverySets    = 4 // per sp2b and bsbm query, parked per restart cycle: 60 sessions
)

// analystSlots are the (explanations, partial) cells of the analyst Latin
// square: each sp2b query but q8b is asked once per slot, its k-th pool set
// with slot k, so it is asked with 2..8 explanations, and a quarter of the
// dialogues are partial. q8b is asked with its slow sets instead, one per
// session, two of the eight partial. mkpool checks every pool set with
// every slot.
var analystSlots = []slot{{2, false}, {3, true}, {4, false}, {4, false}, {5, false}, {6, true}, {7, false}, {8, false}}

type slot struct {
	n       int
	partial bool
}

// slowQuery is the ROADMAP's measured bottleneck, q8b on sp2b: its slow
// sets need 2M to 3M matcher steps in the feedback start (~300 ms).
const slowQuery = "q8b"

// durableCounts are the explanation counts every bsbm and dbpedia query is
// asked with in durable-sessions, one per pool set. With three or more
// explanations the top-k candidates on these ontologies mostly coincide
// and the dialogue decides without a question, so 2 comes twice: most
// dialogues then ask.
var durableCounts = []int{2, 2, 3, 4}

// Inputs is everything the program under test receives: ontology texts in
// the N-Triples dialect, the example-sets as wire JSON, and the oracle's
// answers (the target query's result values). Inputs is a pure function of
// (workload, seed).
type Inputs struct {
	Workload   string            `json:"workload"`
	Seed       int64             `json:"seed"`
	Ontologies map[string]string `json:"ontologies"`
	Sessions   []SessionInput    `json:"sessions"`
	// Tail are q8b example-sets whose feedback start runs for seconds to
	// minutes. They are never sent over HTTP; the traced analyst run times
	// them in-process under a step guard.
	Tail []DialogueInput `json:"tail,omitempty"`
}

// SessionInput is one questprod session: an ontology upload followed by
// one or more dialogues over it.
type SessionInput struct {
	Ontology  string          `json:"ontology"`
	Dialogues []DialogueInput `json:"dialogues"`
}

// DialogueInput is one examples → infer topk → feedback-to-Done dialogue.
type DialogueInput struct {
	Query    string        `json:"query"`
	Partial  bool          `json:"partial,omitempty"`
	Examples []api.Example `json:"examples"`
	// Targets is the sorted result set of the target query: the exact
	// oracle answers "include" iff the question's value is in it.
	Targets []string `json:"targets"`
}

// catalog is one pool catalog plus the wire text of its ontology.
type catalog struct {
	*pool.Catalog
	wire string
}

func (c *catalog) dialogue(q int, set pool.Set, n int, partial bool) DialogueInput {
	return DialogueInput{Query: c.Queries[q].Name, Partial: partial, Examples: set.Prefix(n, partial), Targets: c.Queries[q].Targets}
}

// loadCatalog generates the named ontology and checks it is the one the
// pool was sampled from.
func loadCatalog(p *pool.Pool, name string) (*catalog, error) {
	pc, err := p.Catalog(name)
	if err != nil {
		return nil, err
	}
	w, err := experiments.Load(name, p.Scale)
	if err != nil {
		return nil, err
	}
	c := &catalog{Catalog: pc, wire: ntriples.Format(w.Ontology)}
	if sum := sha256.Sum256([]byte(c.wire)); hex.EncodeToString(sum[:]) != pc.OntologySHA256 {
		return nil, fmt.Errorf("gen: the %s ontology differs from the one the pool was sampled from; rebuild the pool with mkpool", name)
	}
	return c, nil
}

// latin returns a seeded n×n Latin square.
func latin(n int, rng *rand.Rand) [][]int {
	rows, cols, syms := rng.Perm(n), rng.Perm(n), rng.Perm(n)
	sq := make([][]int, n)
	for r := range sq {
		sq[r] = make([]int, n)
		for c := range sq[r] {
			sq[r][c] = syms[(rows[r]+cols[c])%n]
		}
	}
	return sq
}

// alternate interleaves two catalogs' sessions, one of each in turn.
func alternate(per [2][]SessionInput) []SessionInput {
	var out []SessionInput
	for i := 0; i < max(len(per[0]), len(per[1])); i++ {
		for _, p := range per {
			if i < len(p) {
				out = append(out, p[i])
			}
		}
	}
	return out
}

// shuffle puts sessions in a seeded order.
func shuffle(ss []SessionInput, rng *rand.Rand) {
	rng.Shuffle(len(ss), func(a, b int) { ss[a], ss[b] = ss[b], ss[a] })
}

// Generate builds the wire inputs of one workload from its seed.
func Generate(wl string, seed int64) (*Inputs, error) {
	p, err := pool.Load()
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	in := &Inputs{Workload: wl, Seed: seed, Ontologies: map[string]string{}}
	load := func(name string) (*catalog, error) {
		c, err := loadCatalog(p, name)
		if err != nil {
			return nil, err
		}
		in.Ontologies[name] = c.wire
		return c, nil
	}

	switch wl {
	case wlAnalyst:
		// The paper's user study shape: one analyst, one ontology, every
		// sp2b query once per session.
		c, err := load("sp2b")
		if err != nil {
			return nil, err
		}
		slowQ, err := c.Query(slowQuery)
		if err != nil {
			return nil, err
		}
		slow := c.Queries[slowQ].Slow
		if len(slow) != analystSessions {
			return nil, fmt.Errorf("gen: the pool has %d slow %s sets, want %d", len(slow), slowQuery, analystSessions)
		}
		for _, pq := range c.Queries {
			if len(pq.Sets) < len(analystSlots) {
				return nil, fmt.Errorf("gen: the pool has %d %s sets, want %d", len(pq.Sets), pq.Name, len(analystSlots))
			}
		}
		slowOrder := rng.Perm(analystSessions)
		for i, row := range latin(analystSessions, rng) {
			si := SessionInput{Ontology: c.Name}
			for _, q := range rng.Perm(len(c.Queries)) {
				if q == slowQ {
					set := slow[slowOrder[i]]
					si.Dialogues = append(si.Dialogues, c.dialogue(q, set, len(set.Examples), set.Partial))
					continue
				}
				sl := analystSlots[row[q]]
				si.Dialogues = append(si.Dialogues, c.dialogue(q, c.Queries[q].Sets[row[q]], sl.n, sl.partial))
			}
			in.Sessions = append(in.Sessions, si)
		}
		for _, set := range c.Queries[slowQ].Tail {
			in.Tail = append(in.Tail, c.dialogue(slowQ, set, len(set.Examples), set.Partial))
		}
	case wlDurable:
		// Short dialogues on fresh sessions, bsbm and dbpedia alternating:
		// every set of every query of both catalogs, the k-th with
		// durableCounts[k] explanations.
		var per [2][]SessionInput
		for i, name := range []string{"bsbm", "dbpedia"} {
			c, err := load(name)
			if err != nil {
				return nil, err
			}
			for q, pq := range c.Queries {
				if len(pq.Sets) != len(durableCounts) {
					return nil, fmt.Errorf("gen: the pool has %d %s sets, want %d", len(pq.Sets), pq.Name, len(durableCounts))
				}
				for k, n := range durableCounts {
					per[i] = append(per[i], SessionInput{Ontology: c.Name, Dialogues: []DialogueInput{c.dialogue(q, pq.Sets[k], n, false)}})
				}
			}
			shuffle(per[i], rng)
		}
		in.Sessions = alternate(per)
	case wlRecovery:
		// Sessions parked mid-dialogue, sp2b and bsbm alternating, two
		// explanations each, so restore cost is snapshot decode plus one
		// top-k re-inference per session: the first recoverySets sets of
		// every query, in a seeded order.
		var per [2][]SessionInput
		for i, name := range []string{"sp2b", "bsbm"} {
			c, err := load(name)
			if err != nil {
				return nil, err
			}
			for q, pq := range c.Queries {
				if len(pq.Sets) < recoverySets {
					return nil, fmt.Errorf("gen: the pool has %d %s sets, want %d", len(pq.Sets), pq.Name, recoverySets)
				}
				for _, set := range pq.Sets[:recoverySets] {
					per[i] = append(per[i], SessionInput{Ontology: c.Name, Dialogues: []DialogueInput{c.dialogue(q, set, 2, false)}})
				}
			}
			shuffle(per[i], rng)
		}
		in.Sessions = alternate(per)
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", wl, workloadNames)
	}
	return in, nil
}
