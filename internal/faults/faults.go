// Package faults is the chaos-engineering seam of the inference stack: a
// registry of named injection points threaded through the hot paths of the
// matcher, the merge engine, provenance materialization, session management
// and the worker budget. In production no injector is installed and every
// Fire call is a single atomic load returning nil. Tests install an
// Injector (Activate) whose rules fire deterministically — on the nth hit,
// the first k hits, every kth hit, or with a seeded probability — and
// either return an error or panic, so the recovery boundaries of the
// layers above can be exercised systematically under -race.
package faults

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
)

// Point names one injection site. The set is fixed; layers call Fire with
// their own point so an Injector can target them independently.
type Point string

// The registered injection points.
const (
	// MatcherStep fires inside the backtracking matcher's periodic poll
	// (internal/eval), alongside the cancellation check.
	MatcherStep Point = "matcher.step"

	// MergePair fires before each MergePair execution in the merge
	// engine's worker pool (internal/core).
	MergePair Point = "merge.pair"

	// ProvenanceIO fires when a provenance image subgraph is materialized
	// (internal/eval ProvenanceOf), standing in for storage-layer IO.
	ProvenanceIO Point = "provenance.io"

	// SessionSnapshot fires across the session-durability surface:
	// session-id generation at creation (internal/service), the snapshot
	// codec's encode path (so panic-in-codec is injectable inside the
	// session's recovery boundary), and the store's save and load
	// operations (internal/store). One rule therefore drives save-fails,
	// load-fails and restore failures end to end.
	SessionSnapshot Point = "session.snapshot"

	// BudgetAcquire fires at worker-budget admission (internal/conc),
	// simulating a saturated pool.
	BudgetAcquire Point = "budget.acquire"
)

// Points lists every registered injection point, in a fixed order.
func Points() []Point {
	return []Point{MatcherStep, MergePair, ProvenanceIO, SessionSnapshot, BudgetAcquire}
}

// ErrInjected is the sentinel all injected (non-panic) failures wrap.
var ErrInjected = errors.New("faults: injected failure")

// PanicValue is the value an injected panic carries, so recovery boundaries
// (and their tests) can tell a chaos panic from a genuine one.
type PanicValue struct{ Point Point }

func (p PanicValue) String() string {
	return fmt.Sprintf("faults: injected panic at %s", p.Point)
}

// Rule decides when a point fires and what happens. Trigger fields compose
// with OR: the rule fires on the OnNth-th hit, on each of the first FirstN
// hits, on every EveryN-th hit, and with probability Prob on any hit (drawn
// from the injector's seeded generator, so a fixed seed replays the same
// schedule). MaxFires caps how often this rule fires in total (0 = no cap).
type Rule struct {
	Point Point

	OnNth    int     // fire on exactly the nth hit of the point (1-based)
	FirstN   int     // fire on hits 1..FirstN
	EveryN   int     // fire on every EveryN-th hit
	Prob     float64 // fire with probability Prob per hit
	MaxFires int     // total firing cap for this rule (0 = unlimited)

	// Panic makes the rule panic with a PanicValue instead of returning an
	// error; Err overrides the returned error (nil selects ErrInjected
	// wrapped with the point name).
	Panic bool
	Err   error
}

// Injector evaluates rules against per-point hit counters. Safe for
// concurrent use; construct with NewInjector.
type Injector struct {
	mu    sync.Mutex
	rng   *rand.Rand
	rules []Rule
	fires []int // per-rule firing count, parallel to rules
	hits  map[Point]int
	fired map[Point]int
}

// NewInjector builds an injector over the rules with a seeded probability
// source. The same seed and call sequence reproduce the same firings.
func NewInjector(seed int64, rules ...Rule) *Injector {
	return &Injector{
		rng:   rand.New(rand.NewSource(seed)),
		rules: append([]Rule(nil), rules...),
		fires: make([]int, len(rules)),
		hits:  make(map[Point]int),
		fired: make(map[Point]int),
	}
}

// Hits reports how many times the point has been evaluated.
func (in *Injector) Hits(p Point) int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.hits[p]
}

// Fired reports how many times the point has actually fired.
func (in *Injector) Fired(p Point) int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.fired[p]
}

// fire evaluates the rules for one hit of p.
func (in *Injector) fire(p Point) error {
	in.mu.Lock()
	in.hits[p]++
	n := in.hits[p]
	var hit *Rule
	for i := range in.rules {
		r := &in.rules[i]
		if r.Point != p {
			continue
		}
		if r.MaxFires > 0 && in.fires[i] >= r.MaxFires {
			continue
		}
		trig := (r.OnNth > 0 && n == r.OnNth) ||
			(r.FirstN > 0 && n <= r.FirstN) ||
			(r.EveryN > 0 && n%r.EveryN == 0) ||
			(r.Prob > 0 && in.rng.Float64() < r.Prob)
		if trig {
			in.fires[i]++
			hit = r
			break
		}
	}
	if hit == nil {
		in.mu.Unlock()
		return nil
	}
	in.fired[p]++
	doPanic, err := hit.Panic, hit.Err
	in.mu.Unlock()
	if doPanic {
		panic(PanicValue{Point: p})
	}
	if err == nil {
		err = fmt.Errorf("%s: %w", p, ErrInjected)
	}
	return err
}

// active is the installed injector; nil in production.
var active atomic.Pointer[Injector]

// Activate installs in as the process-wide injector and returns a restore
// function reinstating the previous one. Test-only; there is no way to
// activate an injector in a production build path.
func Activate(in *Injector) (restore func()) {
	old := active.Swap(in)
	return func() { active.Store(old) }
}

// Fire is the hook the instrumented layers call. With no injector active
// (production) it is a single atomic load returning nil. With one active it
// returns an injected error, panics with a PanicValue, or returns nil,
// according to the injector's rules.
func Fire(p Point) error {
	in := active.Load()
	if in == nil {
		return nil
	}
	return in.fire(p)
}
