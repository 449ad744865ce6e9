// Package store is the durability substrate of the session registry: a
// crash-safe, dependency-free snapshot store. The service layer serializes
// a session into an opaque payload (internal/service's versioned snapshot
// codec) and hands it here; this package owns the file discipline that
// makes a SIGKILL at any instant recoverable:
//
//   - Save writes a temp file, fsyncs it, renames it into place and fsyncs
//     the directory. The rename is the commit point: a reader sees either
//     the old snapshot or the new one, never a torn hybrid;
//   - every payload is framed with a magic string, a length and a CRC32,
//     so bit rot and truncation are detected on load instead of being
//     decoded into garbage state;
//   - a corrupt or truncated file is moved into a quarantine directory —
//     kept for forensics, never retried, never able to wedge startup.
//
// The faults.SessionSnapshot injection point fires on every save and load,
// so the chaos harness can drive save-fails, load-fails and codec panics
// through the same paths production takes.
package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"questpro/internal/faults"
)

const (
	snapMagic     = "QPSNAP01" // bumped only if the frame layout changes
	snapSuffix    = ".snap"
	journalSuffix = ".wal" // an older build's write-ahead journal
	tmpSuffix     = ".tmp"
	quarantineDir = "quarantine"
)

// Sentinel errors. ErrCorrupt is returned after the offending file has
// already been moved to quarantine.
var (
	ErrNotFound = errors.New("store: snapshot not found")
	ErrCorrupt  = errors.New("store: corrupt snapshot")
)

// Store persists session snapshots under one directory. Construct with
// Open; it holds no open files, so it is safe for concurrent use and
// needs no Close.
type Store struct {
	dir string
}

// Open creates (if needed) and opens a store rooted at dir.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(filepath.Join(dir, quarantineDir), 0o755); err != nil {
		return nil, fmt.Errorf("store: opening %s: %w", dir, err)
	}
	return &Store{dir: dir}, nil
}

// Dir reports the store's root directory.
func (s *Store) Dir() string { return s.dir }

// validID rejects ids that could escape the store directory. Session ids
// are hex strings; anything with a path separator or a leading dot is
// refused outright.
func validID(id string) error {
	if id == "" || strings.HasPrefix(id, ".") || strings.ContainsAny(id, `/\`) {
		return fmt.Errorf("store: invalid session id %q", id)
	}
	return nil
}

func (s *Store) snapPath(id string) string { return filepath.Join(s.dir, id+snapSuffix) }

// frame prepends the snapshot header: magic, payload length, CRC32.
func frame(payload []byte) []byte {
	buf := make([]byte, 0, len(snapMagic)+8+len(payload))
	buf = append(buf, snapMagic...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(payload))
	return append(buf, payload...)
}

// unframe validates a snapshot file's header and returns the payload.
func unframe(data []byte) ([]byte, error) {
	if len(data) < len(snapMagic)+8 {
		return nil, fmt.Errorf("truncated header (%d bytes)", len(data))
	}
	if string(data[:len(snapMagic)]) != snapMagic {
		return nil, fmt.Errorf("bad magic %q", data[:len(snapMagic)])
	}
	n := binary.LittleEndian.Uint32(data[len(snapMagic):])
	sum := binary.LittleEndian.Uint32(data[len(snapMagic)+4:])
	payload := data[len(snapMagic)+8:]
	if uint32(len(payload)) != n {
		return nil, fmt.Errorf("payload length %d, header says %d", len(payload), n)
	}
	if crc32.ChecksumIEEE(payload) != sum {
		return nil, fmt.Errorf("checksum mismatch")
	}
	return payload, nil
}

// Save atomically replaces the session's snapshot: temp file, fsync,
// rename, directory fsync. A crash at any point leaves either the previous
// snapshot or the new one.
func (s *Store) Save(id string, payload []byte) error {
	if err := validID(id); err != nil {
		return err
	}
	if err := faults.Fire(faults.SessionSnapshot); err != nil {
		return fmt.Errorf("store: save %s: %w", id, err)
	}
	tmp := s.snapPath(id) + tmpSuffix
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("store: save %s: %w", id, err)
	}
	if _, err := f.Write(frame(payload)); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("store: save %s: %w", id, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("store: save %s: fsync: %w", id, err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: save %s: %w", id, err)
	}
	if err := os.Rename(tmp, s.snapPath(id)); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: save %s: %w", id, err)
	}
	return s.syncDir()
}

// Load reads and validates the session's snapshot. A missing file returns
// ErrNotFound; a corrupt or truncated file is moved to quarantine and
// returns an ErrCorrupt-matching error.
func (s *Store) Load(id string) ([]byte, error) {
	if err := validID(id); err != nil {
		return nil, err
	}
	if err := faults.Fire(faults.SessionSnapshot); err != nil {
		return nil, fmt.Errorf("store: load %s: %w", id, err)
	}
	data, err := os.ReadFile(s.snapPath(id))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, fmt.Errorf("store: %s: %w", id, ErrNotFound)
		}
		return nil, fmt.Errorf("store: load %s: %w", id, err)
	}
	payload, err := unframe(data)
	if err != nil {
		qerr := s.Quarantine(id)
		if qerr != nil {
			return nil, fmt.Errorf("store: %s: %v (quarantine also failed: %v): %w", id, err, qerr, ErrCorrupt)
		}
		return nil, fmt.Errorf("store: %s: %v: %w", id, err, ErrCorrupt)
	}
	return payload, nil
}

// Quarantine moves the session's snapshot file into the quarantine
// directory under a unique name, so a poisoned file can never wedge a
// restart loop but stays available for forensics.
func (s *Store) Quarantine(id string) error {
	if err := validID(id); err != nil {
		return err
	}
	return s.quarantineFile(id + snapSuffix)
}

// quarantineFile moves the named file of the store directory into
// quarantine, suffixed with the time so repeated offenders never collide.
func (s *Store) quarantineFile(name string) error {
	dst := filepath.Join(s.dir, quarantineDir, fmt.Sprintf("%s.%d", name, time.Now().UnixNano()))
	if err := os.Rename(filepath.Join(s.dir, name), dst); err != nil {
		return fmt.Errorf("store: quarantining %s: %w", name, err)
	}
	return s.syncDir()
}

// SweepJournals disposes of the <id>.wal files an older build's
// write-ahead journal left next to its snapshots. This build commits by
// snapshot alone and never replays them: an empty journal is deleted, and
// a non-empty one — operations the older build journaled but perhaps never
// snapshotted — is moved into quarantine for forensics. It returns the
// session ids whose journals were quarantined; an error on one file does
// not stop the sweep of the others.
func (s *Store) SweepJournals() (quarantined []string, err error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("store: listing %s: %w", s.dir, err)
	}
	var errs []error
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, journalSuffix) {
			continue
		}
		info, err := e.Info()
		if err != nil {
			errs = append(errs, fmt.Errorf("store: %s: %w", name, err))
			continue
		}
		if info.Size() == 0 {
			if err := os.Remove(filepath.Join(s.dir, name)); err != nil && !os.IsNotExist(err) {
				errs = append(errs, fmt.Errorf("store: deleting %s: %w", name, err))
			}
			continue
		}
		if err := s.quarantineFile(name); err != nil {
			errs = append(errs, err)
			continue
		}
		quarantined = append(quarantined, strings.TrimSuffix(name, journalSuffix))
	}
	if err := s.syncDir(); err != nil {
		errs = append(errs, err)
	}
	return quarantined, errors.Join(errs...)
}

// Delete removes the session's snapshot (eviction GC): an evicted session
// must leave no orphaned file behind. Deleting a never-stored id is a
// no-op.
func (s *Store) Delete(id string) error {
	if err := validID(id); err != nil {
		return err
	}
	if err := os.Remove(s.snapPath(id)); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("store: deleting %s: %w", id, err)
	}
	return s.syncDir()
}

// List returns the ids of every stored snapshot, sorted.
func (s *Store) List() ([]string, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("store: listing %s: %w", s.dir, err)
	}
	var ids []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, snapSuffix) {
			continue
		}
		ids = append(ids, strings.TrimSuffix(name, snapSuffix))
	}
	sort.Strings(ids)
	return ids, nil
}

// syncDir fsyncs the store directory so renames and removals are durable.
func (s *Store) syncDir() error {
	d, err := os.Open(s.dir)
	if err != nil {
		return fmt.Errorf("store: syncing dir: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("store: syncing dir: %w", err)
	}
	return nil
}
