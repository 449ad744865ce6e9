package main

import (
	"errors"
	"math"
	"testing"
	"time"
)

// A burst that slows one pass of an input does not move its latency; a
// failed request makes its input miss every limit.
func TestPerInputMedians(t *testing.T) {
	rec := &recorder{}
	add := func(kind, key string, ms float64, err error) {
		rec.keyedSpan(kind, key, time.Now(), err)
		rec.spans[len(rec.spans)-1].durNs = int64(ms * 1e6)
	}
	for pass, burst := range []float64{1, 1, 10} {
		add("infer", "s0.0", 2*burst, nil)
		add("infer", "s0.1", 4*burst, nil)
		add("create", "s0.0", 20, nil)
		rec.dialogue("s0.0", 5*burst+float64(pass), nil)
	}
	add("infer", "s0.2", 3, errors.New("refused"))

	got := rec.perInput("infer")
	want := []float64{2, 4, math.Inf(1)}
	if len(got) != len(want) {
		t.Fatalf("perInput(infer) = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("perInput(infer)[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if got := rec.perInput("infer", "create"); len(got) != 4 {
		t.Errorf("perInput(infer, create) has %d inputs, want 4: kinds are keyed apart", len(got))
	}
	if got := rec.dialoguesPerInput(); len(got) != 1 || got[0] != 6 {
		t.Errorf("dialoguesPerInput = %v, want [6]", got)
	}
}
