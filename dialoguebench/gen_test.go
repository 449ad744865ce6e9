package main

import (
	"bytes"
	"context"
	"encoding/json"
	"go/parser"
	"go/token"
	"strconv"
	"strings"
	"testing"
)

func marshalInputs(t *testing.T, wl string, seed int64) []byte {
	t.Helper()
	in, err := Generate(wl, seed)
	if err != nil {
		t.Fatalf("Generate(%s, %d): %v", wl, seed, err)
	}
	b, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestGenerateIsPureInSeed(t *testing.T) {
	for _, wl := range workloadNames {
		a, b := marshalInputs(t, wl, 7), marshalInputs(t, wl, 7)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: two Generate calls with seed 7 differ", wl)
		}
		if bytes.Equal(a, marshalInputs(t, wl, 8)) {
			t.Errorf("%s: seeds 7 and 8 give identical inputs", wl)
		}
	}
}

// TestGenerateUsesNoProgramLogic pins that the inputs come from the
// committed pool: the generator imports none of the packages whose speed
// the benchmark measures, so a change to them cannot change which inputs
// a seed gives. (experiments is imported for its ontology generators only;
// the pool pins their output by hash.)
func TestGenerateUsesNoProgramLogic(t *testing.T) {
	forbidden := []string{"core", "eval", "feedback", "service", "store", "query", "provenance", "workload/sampling", "gateway"}
	for _, file := range []string{"gen.go", "pool/pool.go"} {
		f, err := parser.ParseFile(token.NewFileSet(), file, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, im := range f.Imports {
			path, _ := strconv.Unquote(im.Path.Value)
			for _, p := range forbidden {
				if path == "questpro/internal/"+p || strings.HasPrefix(path, "questpro/internal/"+p+"/") {
					t.Errorf("%s imports %s: the inputs would depend on the program under test", file, path)
				}
			}
		}
	}
}

// TestWorkloadShape guards against a workload silently degenerating into
// one that no longer exercises what it was built for.
func TestWorkloadShape(t *testing.T) {
	ctx := context.Background()
	shape := func(wl string) (*Inputs, controlSet, *controlRun) {
		in, err := Generate(wl, 1)
		if err != nil {
			t.Fatal(err)
		}
		cr := &controlRun{probe: true}
		cs, err := cr.controls(ctx, in)
		if err != nil {
			t.Fatal(err)
		}
		return in, cs, cr
	}
	// asking is the number of dialogues that ask at least one question.
	asking := func(cs controlSet) (n, total int) {
		for _, s := range cs {
			for _, tr := range s {
				total++
				if len(tr.Questions) > 0 {
					n++
				}
			}
		}
		return n, total
	}

	in, cs, cr := shape(wlAnalyst)
	var q8b, partial bool
	for _, s := range in.Sessions {
		for _, d := range s.Dialogues {
			q8b = q8b || d.Query == "q8b"
			partial = partial || d.Partial
		}
	}
	if !q8b || !partial {
		t.Errorf("analyst-sessions: q8b present %v, partial dialogues present %v; want both", q8b, partial)
	}
	if n, _ := asking(cs); n == 0 {
		t.Error("analyst-sessions: no dialogue asks a question")
	}
	und := 0
	for _, p := range cr.probes {
		und += p.Undistinguished
	}
	if und == 0 {
		t.Error("analyst-sessions: no undistinguished turn")
	}

	_, cs, _ = shape(wlDurable)
	if n, total := asking(cs); 2*n <= total {
		t.Errorf("durable-sessions: %d of %d dialogues ask a question; want most", n, total)
	}

	_, cs, _ = shape(wlRecovery)
	if n, total := asking(cs); 10*n < 9*total {
		t.Errorf("restart-recovery: %d of %d dialogues park on a question; want at least 90%%", n, total)
	}
}
