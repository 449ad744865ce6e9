package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"questpro/internal/obs"
)

// ns builds a span over [start, end) in nanoseconds.
func ns(kind string, start, end int64, kids ...*obs.Node) *obs.Node {
	return &obs.Node{Kind: kind, StartUnixNs: start, DurationNs: end - start, Children: kids}
}

func TestSelfTimeOnCannedTrace(t *testing.T) {
	// A gateway span over a backend root that it links by span id. The
	// backend root ends after the proxy span (it is clipped) and has two
	// overlapping children.
	gw := ns("gateway.proxy", 0, 100)
	gw.SpanID = "g1"
	backend := ns("session.examples", 10, 105,
		ns("snapshot.save", 20, 40),
		ns("eval.results", 30, 60))
	backend.ParentSpanID = "g1"
	// A feedback request and the dialogue root it starts, which outlives
	// it and is nobody's child.
	req := ns("session.feedback.start", 200, 230)
	dlg := ns("feedback.dialogue", 210, 400,
		ns("feedback.question", 210, 228, ns("eval.results", 212, 220)),
		ns("feedback.question", 300, 390))

	st := forestStats([]*obs.Node{gw, backend, req, dlg})
	want := map[string]struct {
		n           int
		total, self int64
	}{
		"gateway.proxy":          {1, 100, 10},      // 100 − clip([10,105]) = 100 − 90
		"session.examples":       {1, 95, 55},       // 95 − |[20,60]|
		"snapshot.save":          {1, 20, 20},       //
		"eval.results":           {2, 38, 38},       // 30 + 8
		"session.feedback.start": {1, 30, 30},       // the dialogue root is not its child
		"feedback.dialogue":      {1, 190, 82},      // 190 − 18 − 90
		"feedback.question":      {2, 108, 10 + 90}, // 18 − 8, and 90
	}
	for kind, w := range want {
		s := st[kind]
		if s == nil {
			t.Errorf("%s: no stats", kind)
			continue
		}
		if s.n != w.n || s.totalNs != w.total || s.selfNs != w.self {
			t.Errorf("%s: n=%d total=%d self=%d, want n=%d total=%d self=%d", kind, s.n, s.totalNs, s.selfNs, w.n, w.total, w.self)
		}
	}
	if len(st) != len(want) {
		t.Errorf("got %d kinds, want %d", len(st), len(want))
	}

	dl := within([]*obs.Node{gw, backend, req, dlg}, "feedback.dialogue")
	if got := dl.sumSelf("eval."); got != 8 {
		t.Errorf("eval self time inside the dialogue = %d, want 8", got)
	}
}

func TestReadJournalSkipsTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	line, _ := json.Marshal(ns("session.infer", 0, 5))
	data := append(append(line, '\n'), []byte(`{"kind":"session.exa`)...)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	nodes, err := readJournal(path)
	if err != nil || len(nodes) != 1 || nodes[0].Kind != "session.infer" {
		t.Fatalf("readJournal = %v, %v; want the one intact record", nodes, err)
	}
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json and the metrics the
// program prints in step.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	for _, w := range bj.Workloads {
		if _, ok := shapes[w.Name]; !ok || w.Why == "" {
			t.Errorf("workload %q (why %q): want a workload the program runs, with a why", w.Name, w.Why)
		}
	}
	if len(bj.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(bj.EndToEnd), len(endToEnd))
	}
	for i, m := range bj.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end_to_end[%d] = %+v, program has %+v", i, m, d)
		}
	}
	if len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d", len(bj.PerLayer), len(perLayer))
	}
	for i, m := range bj.PerLayer {
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || d.moves == "" {
			t.Errorf("per_layer[%d] = %+v, program has %+v", i, m, d)
		}
	}
}
