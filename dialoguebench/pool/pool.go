// Package pool holds the committed example-sets the benchmark draws its
// dialogues from. The sets were sampled once by mkpool and are read back
// as data, so the inputs a seed gives do not change when the program's
// evaluator, inference or feedback code changes.
package pool

import (
	_ "embed"
	"encoding/json"
	"fmt"

	"questpro/internal/api"
)

// Pool is every catalog's committed example-sets.
type Pool struct {
	// Scale is the ontology scale the sets were sampled at.
	Scale    float64   `json:"scale"`
	Catalogs []Catalog `json:"catalogs"`
}

// Catalog is one ontology and its queries' sets. OntologySHA256 pins the
// N-Triples text the sets were sampled from.
type Catalog struct {
	Name           string  `json:"name"`
	OntologySHA256 string  `json:"ontology_sha256"`
	Queries        []Query `json:"queries"`
}

// Query is one target query's sorted result set (the exact oracle's
// answers) and its example-sets.
type Query struct {
	Name    string   `json:"name"`
	Targets []string `json:"targets"`
	// Sets are general example-sets; a dialogue with n explanations takes
	// the first n examples, or the first n fragments when partial.
	Sets []Set `json:"sets"`
	// Slow are example-sets on the query's slow path, each asked exactly as
	// stored (Partial says whether as fragments). Only q8b on sp2b has them.
	Slow []Set `json:"slow,omitempty"`
	// Tail are example-sets whose feedback start ran past mkpool's step
	// cap; they are timed in-process under a guard, never sent over HTTP.
	Tail []Set `json:"tail,omitempty"`
}

// Set is one sampled example-set: each explanation as full provenance and,
// where the benchmark asks the set partial, as the fragment a forgetful
// user gives (sampling.Degrade at 25%).
type Set struct {
	Examples  []api.Example `json:"examples"`
	Fragments []api.Example `json:"fragments,omitempty"`
	Partial   bool          `json:"partial,omitempty"`
	// Steps is the matcher work of the set's feedback start when the pool
	// was built; informational only.
	Steps int64 `json:"steps,omitempty"`
}

// Prefix returns the first n explanations, as fragments when partial.
func (s Set) Prefix(n int, partial bool) []api.Example {
	exs := s.Examples
	if partial {
		exs = s.Fragments
	}
	return exs[:min(n, len(exs))]
}

//go:embed pool.json
var raw []byte

// Load decodes the committed pool.
func Load() (*Pool, error) {
	var p Pool
	if err := json.Unmarshal(raw, &p); err != nil {
		return nil, fmt.Errorf("pool: %w", err)
	}
	return &p, nil
}

// Catalog returns the named catalog.
func (p *Pool) Catalog(name string) (*Catalog, error) {
	for i := range p.Catalogs {
		if p.Catalogs[i].Name == name {
			return &p.Catalogs[i], nil
		}
	}
	return nil, fmt.Errorf("pool: no catalog %q", name)
}

// Query returns the index of the named query.
func (c *Catalog) Query(name string) (int, error) {
	for i, q := range c.Queries {
		if q.Name == name {
			return i, nil
		}
	}
	return 0, fmt.Errorf("pool: no query %q in %s", name, c.Name)
}
