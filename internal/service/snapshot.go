package service

import (
	"encoding/json"
	"fmt"

	"questpro/internal/core"
	"questpro/internal/faults"
	"questpro/internal/graph"
	"questpro/internal/provenance"
)

// This file is the session snapshot codec: the deterministic, versioned
// serialization of a Session's durable state (DESIGN.md §12). The schema
// below IS the on-disk contract — TestSnapshotSchemaGolden pins its shape
// the way make api-check pins the wire API, so a field rename or type
// change fails loudly instead of silently orphaning every snapshot on
// disk. When the shape must change, bump snapshotSchemaVersion, regenerate
// the golden, and teach decode to migrate (or refuse) older versions.
//
// Graphs are serialized explicitly — node table in id order, edge table in
// id order — NOT via ntriples.Format: the N-Triples round-trip re-derives
// node ids from triple order, which permutes ids for graphs that interleave
// typed and untyped node creation, and inference results are only
// guaranteed byte-identical for identical id assignments. Rebuilding with
// AddNode/AddEdge in table order reproduces the exact ids.
//
// What deliberately does NOT survive a restart: the last inference's
// candidate beam when no dialogue is active (re-run Infer to get it back),
// the completion cache's intermediate guard meter (the final Usage does),
// per-operation trace rings, and the last recovered-panic diagnostic —
// all reconstructible or purely diagnostic.

// snapshotSchemaVersion is the codec's schema version, stored in every
// snapshot and checked on decode.
const snapshotSchemaVersion = 1

// sessionSnapshot is the root of the durable session state.
type sessionSnapshot struct {
	Schema         int    `json:"schema"`
	ID             string `json:"id"`
	Seq            int64  `json:"seq"`
	LastUsedUnixNs int64  `json:"last_used_unix_ns"`

	Ontology snapGraph   `json:"ontology"`
	Options  snapOptions `json:"options"`

	// Exactly one of Examples/Partial is populated (matching the session's
	// input mode); Completed and Completion cache the completion phase for
	// partial sessions.
	Examples   []snapExample   `json:"examples,omitempty"`
	Partial    []snapExample   `json:"partial,omitempty"`
	Completed  []snapExample   `json:"completed,omitempty"`
	Completion *snapCompletion `json:"completion,omitempty"`

	// ResultSPARQL is the session's current query (last inferred or
	// feedback-chosen) in its canonical SPARQL rendering.
	ResultSPARQL string `json:"result_sparql,omitempty"`

	Feedback *snapFeedback `json:"feedback,omitempty"`

	Counters snapCounters `json:"counters"`
	Infers   int          `json:"infers"`
}

// snapGraph is an id-preserving graph serialization: nodes and edges in id
// order, so replaying AddNode/AddEdge reproduces identical ids.
type snapGraph struct {
	Nodes []snapNode `json:"nodes"`
	Edges []snapEdge `json:"edges"`
}

type snapNode struct {
	Value string `json:"v"`
	Type  string `json:"t,omitempty"`
}

type snapEdge struct {
	From  int32  `json:"f"`
	To    int32  `json:"o"`
	Label string `json:"l"`
}

// snapExample serializes one explanation or fragment.
type snapExample struct {
	Graph         snapGraph `json:"graph"`
	Distinguished int32     `json:"distinguished"`
	MissingEdges  int       `json:"missing_edges,omitempty"`
}

// snapOptions mirrors core.Options field-for-field (the guard flattened),
// so restored sessions infer with exactly the options they were created
// with.
type snapOptions struct {
	GainWeights     [3]float64 `json:"gain_weights"`
	NumIter         int        `json:"num_iter"`
	CostW1          float64    `json:"cost_w1"`
	CostW2          float64    `json:"cost_w2"`
	K               int        `json:"k"`
	FirstPairSweep  int        `json:"first_pair_sweep,omitempty"`
	Workers         int        `json:"workers,omitempty"`
	ReferenceScan   bool       `json:"reference_scan,omitempty"`
	GuardMaxSteps   int64      `json:"guard_max_steps,omitempty"`
	GuardMaxResults int64      `json:"guard_max_results,omitempty"`
	GuardMaxBytes   int64      `json:"guard_max_bytes,omitempty"`
	MaxCompletions  int        `json:"max_completions,omitempty"`
}

// snapCompletion mirrors core.CompletionReport.
type snapCompletion struct {
	Considered   int64        `json:"considered"`
	Accepted     int64        `json:"accepted"`
	Degraded     bool         `json:"degraded,omitempty"`
	UsageSteps   int64        `json:"usage_steps,omitempty"`
	UsageResults int64        `json:"usage_results,omitempty"`
	UsageBytes   int64        `json:"usage_bytes,omitempty"`
	Exhausted    bool         `json:"exhausted,omitempty"`
	Choices      []snapChoice `json:"choices"`
}

type snapChoice struct {
	Example           int  `json:"example"`
	Identity          bool `json:"identity,omitempty"`
	AddedTriples      int  `json:"added_triples,omitempty"`
	ResolvedWildcards int  `json:"resolved_wildcards,omitempty"`
	Considered        int  `json:"considered,omitempty"`
}

// snapFeedback is the dialogue position: the consumed-answer log plus
// whether the question after the last answer was already delivered to the
// client. Restore re-runs the (deterministic) top-k inference, starts a
// fresh dialogue and replays Answers through it, which reproduces the exact
// question sequence — including the pending question, recomputed and
// marked delivered when PendingDelivered is set so a client's re-fetch
// after the restart is idempotent. Asked is informational: restore derives
// it from the log.
type snapFeedback struct {
	MaxQuestions     int    `json:"max_questions,omitempty"`
	Answers          []bool `json:"answers"`
	Asked            int    `json:"asked"`
	PendingDelivered bool   `json:"pending_delivered,omitempty"`
}

// snapCounters mirrors core.CountersSnapshot.
type snapCounters struct {
	Algorithm1Calls       int   `json:"algorithm1_calls,omitempty"`
	Rounds                int   `json:"rounds,omitempty"`
	CacheHits             int   `json:"cache_hits,omitempty"`
	CacheMisses           int   `json:"cache_misses,omitempty"`
	GainEvals             int64 `json:"gain_evals,omitempty"`
	Restarts              int   `json:"restarts,omitempty"`
	CompletionsConsidered int64 `json:"completions_considered,omitempty"`
	CompletionsAccepted   int64 `json:"completions_accepted,omitempty"`
}

func graphToSnap(g *graph.Graph) snapGraph {
	sg := snapGraph{
		Nodes: make([]snapNode, g.NumNodes()),
		Edges: make([]snapEdge, g.NumEdges()),
	}
	for i := range sg.Nodes {
		n := g.Node(graph.NodeID(i))
		sg.Nodes[i] = snapNode{Value: n.Value, Type: n.Type}
	}
	for i := range sg.Edges {
		e := g.Edge(graph.EdgeID(i))
		sg.Edges[i] = snapEdge{From: int32(e.From), To: int32(e.To), Label: e.Label}
	}
	return sg
}

func snapToGraph(sg snapGraph) (*graph.Graph, error) {
	g := graph.New()
	for i, n := range sg.Nodes {
		id, err := g.AddNode(n.Value, n.Type)
		if err != nil {
			return nil, fmt.Errorf("node %d: %w", i, err)
		}
		if int(id) != i {
			return nil, fmt.Errorf("node %d rebuilt with id %d", i, id)
		}
	}
	for i, e := range sg.Edges {
		if _, err := g.AddEdge(graph.NodeID(e.From), graph.NodeID(e.To), e.Label); err != nil {
			return nil, fmt.Errorf("edge %d: %w", i, err)
		}
	}
	return g, nil
}

func examplesToSnap(exs provenance.ExampleSet) []snapExample {
	if len(exs) == 0 {
		return nil
	}
	out := make([]snapExample, len(exs))
	for i, e := range exs {
		out[i] = snapExample{Graph: graphToSnap(e.Graph), Distinguished: int32(e.Distinguished)}
	}
	return out
}

func snapToExamples(in []snapExample) (provenance.ExampleSet, error) {
	if len(in) == 0 {
		return nil, nil
	}
	out := make(provenance.ExampleSet, len(in))
	for i, se := range in {
		g, err := snapToGraph(se.Graph)
		if err != nil {
			return nil, fmt.Errorf("example %d: %w", i, err)
		}
		out[i] = provenance.Explanation{Graph: g, Distinguished: graph.NodeID(se.Distinguished)}
	}
	return out, out.Validate()
}

func partialToSnap(pex provenance.PartialExampleSet) []snapExample {
	if len(pex) == 0 {
		return nil
	}
	out := make([]snapExample, len(pex))
	for i, p := range pex {
		out[i] = snapExample{
			Graph:         graphToSnap(p.Graph),
			Distinguished: int32(p.Distinguished),
			MissingEdges:  p.MissingEdges,
		}
	}
	return out
}

func snapToPartial(in []snapExample) (provenance.PartialExampleSet, error) {
	if len(in) == 0 {
		return nil, nil
	}
	out := make(provenance.PartialExampleSet, len(in))
	for i, se := range in {
		g, err := snapToGraph(se.Graph)
		if err != nil {
			return nil, fmt.Errorf("fragment %d: %w", i, err)
		}
		out[i] = provenance.PartialExplanation{
			Graph:         g,
			Distinguished: graph.NodeID(se.Distinguished),
			MissingEdges:  se.MissingEdges,
		}
	}
	return out, out.Validate()
}

func optionsToSnap(o core.Options) snapOptions {
	return snapOptions{
		GainWeights:     o.GainWeights,
		NumIter:         o.NumIter,
		CostW1:          o.CostW1,
		CostW2:          o.CostW2,
		K:               o.K,
		FirstPairSweep:  o.FirstPairSweep,
		Workers:         o.Workers,
		ReferenceScan:   o.ReferenceScan,
		GuardMaxSteps:   o.Guard.MaxSteps,
		GuardMaxResults: o.Guard.MaxResults,
		GuardMaxBytes:   o.Guard.MaxBytes,
		MaxCompletions:  o.MaxCompletions,
	}
}

func snapToOptions(so snapOptions) core.Options {
	o := core.Options{
		GainWeights:    so.GainWeights,
		NumIter:        so.NumIter,
		CostW1:         so.CostW1,
		CostW2:         so.CostW2,
		K:              so.K,
		FirstPairSweep: so.FirstPairSweep,
		Workers:        so.Workers,
		ReferenceScan:  so.ReferenceScan,
		MaxCompletions: so.MaxCompletions,
	}
	o.Guard.MaxSteps = so.GuardMaxSteps
	o.Guard.MaxResults = so.GuardMaxResults
	o.Guard.MaxBytes = so.GuardMaxBytes
	return o
}

func completionToSnap(rep *core.CompletionReport) *snapCompletion {
	if rep == nil {
		return nil
	}
	sc := &snapCompletion{
		Considered:   rep.Considered,
		Accepted:     rep.Accepted,
		Degraded:     rep.Degraded,
		UsageSteps:   rep.GuardUsage.Steps,
		UsageResults: rep.GuardUsage.Results,
		UsageBytes:   rep.GuardUsage.Bytes,
		Exhausted:    rep.GuardUsage.Exhausted,
		Choices:      make([]snapChoice, len(rep.Choices)),
	}
	for i, c := range rep.Choices {
		sc.Choices[i] = snapChoice{
			Example:           c.Example,
			Identity:          c.Identity,
			AddedTriples:      c.AddedTriples,
			ResolvedWildcards: c.ResolvedWildcards,
			Considered:        c.Considered,
		}
	}
	return sc
}

func snapToCompletion(sc *snapCompletion) *core.CompletionReport {
	if sc == nil {
		return nil
	}
	rep := &core.CompletionReport{
		Considered: sc.Considered,
		Accepted:   sc.Accepted,
		Degraded:   sc.Degraded,
		Choices:    make([]core.CompletionChoice, len(sc.Choices)),
	}
	rep.GuardUsage.Steps = sc.UsageSteps
	rep.GuardUsage.Results = sc.UsageResults
	rep.GuardUsage.Bytes = sc.UsageBytes
	rep.GuardUsage.Exhausted = sc.Exhausted
	for i, c := range sc.Choices {
		rep.Choices[i] = core.CompletionChoice{
			Example:           c.Example,
			Identity:          c.Identity,
			AddedTriples:      c.AddedTriples,
			ResolvedWildcards: c.ResolvedWildcards,
			Considered:        c.Considered,
		}
	}
	return rep
}

func countersToSnap(c core.CountersSnapshot) snapCounters {
	return snapCounters{
		Algorithm1Calls:       c.Algorithm1Calls,
		Rounds:                c.Rounds,
		CacheHits:             c.CacheHits,
		CacheMisses:           c.CacheMisses,
		GainEvals:             c.GainEvals,
		Restarts:              c.Restarts,
		CompletionsConsidered: c.CompletionsConsidered,
		CompletionsAccepted:   c.CompletionsAccepted,
	}
}

func snapToCounters(sc snapCounters) core.CountersSnapshot {
	return core.CountersSnapshot{
		Algorithm1Calls:       sc.Algorithm1Calls,
		Rounds:                sc.Rounds,
		CacheHits:             sc.CacheHits,
		CacheMisses:           sc.CacheMisses,
		GainEvals:             sc.GainEvals,
		Restarts:              sc.Restarts,
		CompletionsConsidered: sc.CompletionsConsidered,
		CompletionsAccepted:   sc.CompletionsAccepted,
	}
}

// encodeSessionLocked serializes the session's durable state at sequence
// seq; the caller holds s.mu. The faults.SessionSnapshot point fires first
// — the codec leg of the save path — so the chaos suite can inject both
// encode errors and panics here.
func encodeSessionLocked(s *Session, seq int64) ([]byte, error) {
	if err := faults.Fire(faults.SessionSnapshot); err != nil {
		return nil, fmt.Errorf("encoding snapshot: %w", err)
	}
	snap := sessionSnapshot{
		Schema:         snapshotSchemaVersion,
		ID:             s.ID,
		Seq:            seq,
		LastUsedUnixNs: s.last.Load(),
		Ontology:       graphToSnap(s.onto),
		Options:        optionsToSnap(s.opts),
		Examples:       examplesToSnap(s.ex),
		Partial:        partialToSnap(s.pex),
		Completed:      examplesToSnap(s.completed),
		Completion:     completionToSnap(s.compReport),
		Counters:       countersToSnap(s.counters),
		Infers:         s.infers,
	}
	if s.result != nil {
		snap.ResultSPARQL = s.result.SPARQL()
	}
	if run := s.fb; run != nil {
		snap.Feedback = &snapFeedback{
			MaxQuestions:     run.maxQuestions,
			Answers:          append([]bool(nil), run.log...),
			Asked:            run.asked(),
			PendingDelivered: run.pending != nil,
		}
	}
	return json.Marshal(snap)
}

// decodeSessionSnapshot parses and version-checks a snapshot payload.
func decodeSessionSnapshot(data []byte) (*sessionSnapshot, error) {
	var snap sessionSnapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return nil, fmt.Errorf("decoding snapshot: %w", err)
	}
	if snap.Schema != snapshotSchemaVersion {
		return nil, fmt.Errorf("snapshot schema %d, this build reads %d", snap.Schema, snapshotSchemaVersion)
	}
	if snap.ID == "" {
		return nil, fmt.Errorf("snapshot without session id")
	}
	return &snap, nil
}
