package service

import "testing"

// FuzzRestoreSnapshot drives the snapshot decoder — the one durable format
// a crashed or older process hands this one — with arbitrary payloads. No
// input may panic, and any session the rebuild returns must hold
// example-sets that pass the checks SetExamples and SetPartialExamples
// apply. The committed seed corpus (testdata/fuzz/FuzzRestoreSnapshot) is
// derived from testdata/parked_dialogue.snap's payload: the payload
// itself, its examples as partial fragments, with a completion cache, and
// with an out-of-range distinguished node. `make fuzz` explores beyond it.
func FuzzRestoreSnapshot(f *testing.F) {
	r := NewRegistry(Config{})
	f.Cleanup(r.Close)
	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := decodeSessionSnapshot(data)
		if err != nil {
			return
		}
		// A dialogue makes the rebuild re-run top-k inference over
		// whatever example-set the input carries, which stalls the fuzzer.
		snap.Feedback = nil
		s, err := r.rebuildSession(snap)
		if err != nil {
			return
		}
		defer s.close()
		if len(s.ex) > 0 {
			if err := s.ex.Validate(); err != nil {
				t.Fatalf("restored examples invalid: %v", err)
			}
		}
		if len(s.pex) > 0 {
			if err := s.pex.Validate(); err != nil {
				t.Fatalf("restored fragments invalid: %v", err)
			}
		}
		if len(s.completed) > 0 {
			if err := s.completed.Validate(); err != nil {
				t.Fatalf("restored completed examples invalid: %v", err)
			}
		}
	})
}
