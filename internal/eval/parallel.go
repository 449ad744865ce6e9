package eval

import (
	"context"
	"errors"
	"sort"
	"sync"
	"sync/atomic"

	"questpro/internal/graph"
	"questpro/internal/qerr"
	"questpro/internal/query"
)

// Graph reads are safe for concurrent use (the ontology is append-only and
// the evaluator never mutates it), so the per-result existence probes of
// ResultsSimple parallelize embarrassingly. probeSharded exploits that for
// large candidate sets: each worker owns a prober (its own Match buffers),
// verdicts are recorded per candidate index, and the merge replays the
// candidate list in order — so output and error choice are identical to
// the sequential loop regardless of scheduling.

// parallelThreshold is the candidate-count below which the sequential path
// is used (goroutine overhead dominates tiny probe sets).
const parallelThreshold = 64

// probeSharded fans the per-candidate existence probes out over workers
// goroutines. hit/err verdicts are indexed by candidate, and the merge
// scans candidates in index order, so the returned values — and, on
// failure, the chosen error — are exactly the sequential loop's: the
// earliest-candidate error wins, because the index counter hands
// candidates out in order and a pulled probe always completes, so every
// candidate before the earliest error has a recorded verdict. On a
// qerr.ErrBudgetExhausted error the hits before the failing candidate are
// returned (the sequential degraded prefix); other errors discard results.
func (ev *Evaluator) probeSharded(ctx context.Context, q *query.Simple, proj query.NodeID, candidates []graph.NodeID, workers int) ([]string, error) {
	if workers > len(candidates) {
		workers = len(candidates)
	}
	hits := make([]bool, len(candidates))
	errs := make([]error, len(candidates))
	var (
		next   atomic.Int64
		failed atomic.Bool
		wg     sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p := newProber(ev, q, proj)
			for {
				// The failure check precedes the pull so a pulled index is
				// always probed — the merge's in-order replay relies on every
				// candidate before the earliest error having a verdict.
				if failed.Load() {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= len(candidates) {
					return
				}
				ok, err := p.probe(ctx, candidates[i])
				hits[i], errs[i] = ok, err
				if err != nil {
					failed.Store(true)
					return
				}
			}
		}()
	}
	wg.Wait()
	var out []string
	for i, c := range candidates {
		if err := errs[i]; err != nil {
			if errors.Is(err, qerr.ErrBudgetExhausted) {
				sort.Strings(out)
				return out, err
			}
			return nil, err
		}
		if hits[i] {
			out = append(out, ev.o.Node(c).Value)
		}
	}
	sort.Strings(out)
	return out, nil
}
