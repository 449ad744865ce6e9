package store

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"questpro/internal/faults"
)

func open(t *testing.T) *Store {
	t.Helper()
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return s
}

func TestSaveLoadRoundTrip(t *testing.T) {
	s := open(t)
	payload := []byte(`{"schema":1,"id":"abc"}`)
	if err := s.Save("abc", payload); err != nil {
		t.Fatalf("Save: %v", err)
	}
	got, err := s.Load("abc")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if string(got) != string(payload) {
		t.Fatalf("Load = %q, want %q", got, payload)
	}
	// Overwrite replaces atomically.
	if err := s.Save("abc", []byte("v2")); err != nil {
		t.Fatalf("Save v2: %v", err)
	}
	if got, _ := s.Load("abc"); string(got) != "v2" {
		t.Fatalf("Load after overwrite = %q", got)
	}
}

func TestLoadMissing(t *testing.T) {
	s := open(t)
	if _, err := s.Load("nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Load missing = %v, want ErrNotFound", err)
	}
}

func TestInvalidIDRejected(t *testing.T) {
	s := open(t)
	for _, id := range []string{"", "../x", "a/b", `a\b`, ".hidden"} {
		if err := s.Save(id, []byte("x")); err == nil {
			t.Errorf("Save(%q) accepted a path-escaping id", id)
		}
	}
}

// quarantineCount returns how many files sit in the quarantine directory.
func quarantineCount(t *testing.T, s *Store) int {
	t.Helper()
	ents, err := os.ReadDir(filepath.Join(s.Dir(), quarantineDir))
	if err != nil {
		t.Fatalf("reading quarantine: %v", err)
	}
	return len(ents)
}

func TestCorruptSnapshotQuarantined(t *testing.T) {
	s := open(t)
	if err := s.Save("abc", []byte("payload")); err != nil {
		t.Fatalf("Save: %v", err)
	}
	// Flip a payload byte on disk: the CRC must catch it.
	path := filepath.Join(s.Dir(), "abc"+snapSuffix)
	data, _ := os.ReadFile(path)
	data[len(data)-1] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := s.Load("abc")
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Load corrupt = %v, want ErrCorrupt", err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("corrupt file still in place: %v", err)
	}
	if n := quarantineCount(t, s); n != 1 {
		t.Fatalf("quarantine holds %d files, want 1", n)
	}
	// A second load sees a clean not-found, not a crash loop.
	if _, err := s.Load("abc"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Load after quarantine = %v, want ErrNotFound", err)
	}
}

func TestTruncatedSnapshotQuarantined(t *testing.T) {
	s := open(t)
	if err := s.Save("abc", []byte("a longer payload that will be cut")); err != nil {
		t.Fatalf("Save: %v", err)
	}
	path := filepath.Join(s.Dir(), "abc"+snapSuffix)
	data, _ := os.ReadFile(path)
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Load("abc"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Load truncated = %v, want ErrCorrupt", err)
	}
	if n := quarantineCount(t, s); n != 1 {
		t.Fatalf("quarantine holds %d files, want 1", n)
	}
}

func TestDeleteRemovesSnapshot(t *testing.T) {
	s := open(t)
	if err := s.Save("abc", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete("abc"); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	ents, _ := os.ReadDir(s.Dir())
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), "abc") {
			t.Fatalf("orphaned file %s after Delete", e.Name())
		}
	}
	// Deleting a never-stored id is a no-op, not an error.
	if err := s.Delete("ghost"); err != nil {
		t.Fatalf("Delete missing: %v", err)
	}
}

func TestList(t *testing.T) {
	s := open(t)
	for _, id := range []string{"bb", "aa", "cc"} {
		if err := s.Save(id, []byte(id)); err != nil {
			t.Fatal(err)
		}
	}
	// A temp file left by a crash mid-Save must not show up as a session.
	if err := os.WriteFile(filepath.Join(s.Dir(), "zz"+snapSuffix+tmpSuffix), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	ids, err := s.List()
	if err != nil {
		t.Fatalf("List: %v", err)
	}
	if len(ids) != 3 || ids[0] != "aa" || ids[1] != "bb" || ids[2] != "cc" {
		t.Fatalf("List = %v, want [aa bb cc]", ids)
	}
}

func TestFaultInjectionFires(t *testing.T) {
	s := open(t)
	in := faults.NewInjector(1, faults.Rule{Point: faults.SessionSnapshot, FirstN: 2})
	restore := faults.Activate(in)
	defer restore()
	if err := s.Save("abc", []byte("x")); err == nil {
		t.Fatal("Save with injected fault succeeded")
	}
	if _, err := s.Load("abc"); err == nil || errors.Is(err, ErrNotFound) {
		t.Fatalf("Load with injected fault = %v, want injected error", err)
	}
	if got := in.Fired(faults.SessionSnapshot); got != 2 {
		t.Fatalf("Fired = %d, want 2", got)
	}
}
