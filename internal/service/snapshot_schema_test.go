package service

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

var updateSnapSchema = flag.Bool("update-snapshot-schema", false,
	"rewrite the golden snapshot-schema file")

// snapshotTypes enumerates every type that reaches the on-disk snapshot
// encoding. A new durable field must be added here and to
// the golden file to become part of the contract.
var snapshotTypes = []any{
	sessionSnapshot{},
	snapGraph{},
	snapNode{},
	snapEdge{},
	snapExample{},
	snapOptions{},
	snapCompletion{},
	snapChoice{},
	snapFeedback{},
	snapCounters{},
}

// renderSnapshotSchema flattens the codec's on-disk contract exactly the
// way internal/api's schema test flattens the wire contract: one
// "Type.Field json-tag go-type" line per field.
func renderSnapshotSchema() string {
	var b strings.Builder
	fmt.Fprintf(&b, "snapshot schema v%d\n\n", snapshotSchemaVersion)
	for _, v := range snapshotTypes {
		t := reflect.TypeOf(v)
		fmt.Fprintf(&b, "type %s\n", t.Name())
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			tag := f.Tag.Get("json")
			if tag == "" {
				tag = "-"
			}
			fmt.Fprintf(&b, "  %-22s %-28s %s\n", f.Name, tag, f.Type.String())
		}
		b.WriteString("\n")
	}
	return b.String()
}

// TestSnapshotSchemaGolden pins the durable session-state contract: a
// field rename, type change, or tag change in the snapshot codec would
// strand every snapshot already on disk, so it must show up as a diff here
// and be accompanied by a snapshotSchemaVersion bump plus a migration (or
// a deliberate additive regeneration with -update-snapshot-schema). This
// is make api-check's discipline applied to the on-disk format.
func TestSnapshotSchemaGolden(t *testing.T) {
	got := renderSnapshotSchema()
	path := filepath.Join("testdata",
		fmt.Sprintf("snapshot_schema_v%d.golden", snapshotSchemaVersion))
	if *updateSnapSchema {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden snapshot schema (run `go test ./internal/service -run TestSnapshotSchemaGolden -update-snapshot-schema`): %v", err)
	}
	if got != string(want) {
		t.Fatalf("snapshot schema drifted from %s.\nAdditive changes: regenerate with -update-snapshot-schema.\nShape changes: bump snapshotSchemaVersion and handle old snapshots in decode.\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}

// TestSnapshotSchemaNoUntypedFields keeps every durable shape static: no
// interfaces, no interface-valued maps — the decode of a crashed process's
// file must never depend on dynamic types.
func TestSnapshotSchemaNoUntypedFields(t *testing.T) {
	for _, v := range snapshotTypes {
		t2 := reflect.TypeOf(v)
		for i := 0; i < t2.NumField(); i++ {
			f := t2.Field(i)
			if f.Type.Kind() == reflect.Interface {
				t.Errorf("%s.%s is an interface; durable shapes must be static", t2.Name(), f.Name)
			}
			if f.Type.Kind() == reflect.Map && f.Type.Elem().Kind() == reflect.Interface {
				t.Errorf("%s.%s is a map with interface values; durable shapes must be static", t2.Name(), f.Name)
			}
		}
	}
}
