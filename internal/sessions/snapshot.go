// Snapshot persistence: periodic whole-store dumps that bound recovery
// time and let the WAL be pruned. A snapshot is a JSON-lines file named
// sessions-<appliedLSN as %016x>.snap written atomically via
// internal/atomicio: line 1 is a header binding the file to its format,
// window capacity, applied LSN, and a CRC32-C of the body; then one
// line per session, least-recently-used first, so restoring in file
// order reconstructs both the windows and the LRU recency order.
package sessions

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"

	"tsppr/internal/atomicio"
	"tsppr/internal/seq"
)

const (
	snapFormat = "tsppr-sessnap-v1"
	snapPrefix = "sessions-"
	snapSuffix = ".snap"

	// KeepSnapshots is how many generations Prune retains: the newest
	// for fast recovery, plus one older fallback in case a crash or bit
	// rot claims the newest. The WAL must therefore only be pruned up to
	// the *oldest kept* snapshot's LSN.
	KeepSnapshots = 2
)

var snapCRC = crc32.MakeTable(crc32.Castagnoli)

type snapHeader struct {
	Format     string `json:"format"`
	WindowCap  int    `json:"window_cap"`
	AppliedLSN uint64 `json:"applied_lsn"`
	Users      int    `json:"users"`
	BodyCRC    uint32 `json:"body_crc"`
}

// Capture is a point-in-time copy of a store — every window, in LRU
// order, and the applied LSN they add up to — taken under the store's
// lock by Store.Capture and written out without it by Write. It shares
// nothing with the live store, so the write can run on any goroutine
// while ingest carries on.
type Capture struct {
	windows   []UserWindow
	lsn       uint64
	windowCap int
}

// Capture copies the store's current state. This is the only part of a
// snapshot that holds the store's lock: a memory copy, no encoding and
// no I/O.
func (s *Store) Capture() *Capture {
	s.mu.Lock()
	defer s.mu.Unlock()
	return &Capture{windows: s.lruDumpLocked(), lsn: s.appliedLSN, windowCap: s.cfg.WindowCap}
}

// Save atomically writes the store's current state to dir and returns
// the snapshot path and its applied LSN: Capture and Write composed.
func (s *Store) Save(dir string) (string, uint64, error) {
	return s.Capture().Write(dir)
}

// snapChunkBytes bounds the encoded body Write holds at once.
const snapChunkBytes = 64 << 10

// Write atomically writes the capture to dir as a snapshot file and
// returns its path and applied LSN. The stream passes through the
// "sessions.snapshot" fault-injection point; on any failure the previous
// snapshot generation is untouched. The header comes first in the file
// and carries the body's CRC, so the body is encoded twice — once into
// the CRC, once into the file — a chunk at a time, and is never held
// whole: a write costs one chunk of memory beyond the capture itself.
func (c *Capture) Write(dir string) (string, uint64, error) {
	var crc uint32
	err := c.encodeBody(func(chunk []byte) error {
		crc = crc32.Update(crc, snapCRC, chunk)
		return nil
	})
	if err != nil {
		return "", 0, fmt.Errorf("sessions: snapshot encode: %w", err)
	}
	hdr := snapHeader{
		Format:     snapFormat,
		WindowCap:  c.windowCap,
		AppliedLSN: c.lsn,
		Users:      len(c.windows),
		BodyCRC:    crc,
	}
	path := filepath.Join(dir, snapName(c.lsn))
	err = atomicio.WriteFile(path, "sessions.snapshot", func(w io.Writer) error {
		if err := json.NewEncoder(w).Encode(hdr); err != nil {
			return err
		}
		return c.encodeBody(func(chunk []byte) error {
			_, err := w.Write(chunk)
			return err
		})
	})
	if err != nil {
		return "", 0, fmt.Errorf("sessions: snapshot: %w", err)
	}
	return path, c.lsn, nil
}

// encodeBody streams the snapshot body — one JSON line per session — to
// emit in chunks of about snapChunkBytes. The bytes are a function of
// the capture alone, so two passes produce the same stream.
func (c *Capture) encodeBody(emit func(chunk []byte) error) error {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, uw := range c.windows {
		if err := enc.Encode(uw); err != nil {
			return err
		}
		if buf.Len() >= snapChunkBytes {
			if err := emit(buf.Bytes()); err != nil {
				return err
			}
			buf.Reset()
		}
	}
	if buf.Len() == 0 {
		return nil
	}
	return emit(buf.Bytes())
}

// LoadLatest builds a store from the newest loadable snapshot in dir.
// Corrupt or torn snapshots are skipped (counted in SnapshotsSkipped)
// in favor of older generations; with no usable snapshot the store
// starts empty and recovery falls back to a full WAL replay. A window-
// capacity mismatch is a loud error, not a skip: silently rebuilding
// windows at a different |W| would corrupt every session.
func LoadLatest(dir string, cfg Config) (*Store, RecoverStats, error) {
	var stats RecoverStats
	snaps, err := listSnapshots(dir)
	if err != nil {
		return nil, stats, err
	}
	for i := len(snaps) - 1; i >= 0; i-- { // newest first
		path := filepath.Join(dir, snaps[i].name)
		store, hdr, err := loadSnapshot(path, cfg)
		if err != nil {
			var mismatch *capMismatchError
			if errors.As(err, &mismatch) {
				return nil, stats, err
			}
			stats.SnapshotsSkipped++
			continue
		}
		stats.SnapshotPath = path
		stats.SnapshotLSN = hdr.AppliedLSN
		stats.SnapshotUsers = hdr.Users
		return store, stats, nil
	}
	return NewStore(cfg), stats, nil
}

type capMismatchError struct {
	path      string
	got, want int
}

func (e *capMismatchError) Error() string {
	return fmt.Sprintf("sessions: %s was taken at window capacity %d, store configured for %d — refusing to restore resized windows", e.path, e.got, e.want)
}

func loadSnapshot(path string, cfg Config) (*Store, snapHeader, error) {
	var hdr snapHeader
	f, err := os.Open(path)
	if err != nil {
		return nil, hdr, err
	}
	defer f.Close()
	br := bufio.NewReader(f)
	hdrLine, err := br.ReadBytes('\n')
	if err != nil {
		return nil, hdr, fmt.Errorf("sessions: %s: truncated header: %w", path, err)
	}
	if err := json.Unmarshal(hdrLine, &hdr); err != nil {
		return nil, hdr, fmt.Errorf("sessions: %s: %w", path, err)
	}
	if hdr.Format != snapFormat {
		return nil, hdr, fmt.Errorf("sessions: %s: format %q, want %q", path, hdr.Format, snapFormat)
	}
	if hdr.WindowCap != cfg.WindowCap {
		return nil, hdr, &capMismatchError{path: path, got: hdr.WindowCap, want: cfg.WindowCap}
	}
	// The body streams through the CRC into the decoder, one line
	// resident at a time; the verdict on the file comes at EOF, and the
	// half-built store is dropped with any error before it.
	crc := crc32.New(snapCRC)
	dec := json.NewDecoder(io.TeeReader(br, crc))
	s := NewStore(cfg)
	s.appliedLSN = hdr.AppliedLSN
	var uw UserWindow
	n := 0
	for {
		uw = UserWindow{Items: uw.Items[:0]} // reuse the line's item storage
		if err := dec.Decode(&uw); err == io.EOF {
			break
		} else if err != nil {
			return nil, hdr, fmt.Errorf("sessions: %s: session %d: %w", path, n, err)
		}
		ring, err := seq.RestoreRing(cfg.WindowCap, uw.Pushed, uw.Items)
		if err != nil {
			return nil, hdr, fmt.Errorf("sessions: %s: user %d: %w", path, uw.User, err)
		}
		if _, dup := s.users[uw.User]; dup {
			return nil, hdr, fmt.Errorf("sessions: %s: user %d appears twice", path, uw.User)
		}
		// Sessions are stored least-recent-first; pushing each to the
		// LRU front replays the recency order exactly. The snapshot does
		// not record per-user LSNs, so restored entries inherit the
		// snapshot's applied LSN: a conservative over-stamp (the user's
		// last event is ≤ it) that only matters to cache versioning,
		// where WAL replay past the snapshot re-stamps exactly and a
		// fresh store has no cache to be stale against.
		e := &entry{user: uw.User, ring: ring, lsn: hdr.AppliedLSN}
		s.pushFrontLocked(e)
		s.users[uw.User] = e
		n++
	}
	if got := crc.Sum32(); got != hdr.BodyCRC {
		return nil, hdr, fmt.Errorf("sessions: %s: body CRC %08x, header says %08x", path, got, hdr.BodyCRC)
	}
	if n != hdr.Users {
		return nil, hdr, fmt.Errorf("sessions: %s: %d sessions, header says %d", path, n, hdr.Users)
	}
	// If the configured bound shrank since the snapshot, evict down.
	s.evictOverLocked()
	return s, hdr, nil
}

// PruneSnapshots removes all but the newest KeepSnapshots generations
// and returns the applied LSN of the oldest kept snapshot (0 when none
// exist) — the safe WAL prune horizon.
func PruneSnapshots(dir string) (uint64, error) {
	snaps, err := listSnapshots(dir)
	if err != nil {
		return 0, err
	}
	for len(snaps) > KeepSnapshots {
		if err := os.Remove(filepath.Join(dir, snaps[0].name)); err != nil {
			return 0, fmt.Errorf("sessions: prune snapshot: %w", err)
		}
		snaps = snaps[1:]
	}
	if len(snaps) == 0 {
		return 0, nil
	}
	return snaps[0].lsn, nil
}

// SnapshotPath returns the canonical snapshot file path for an applied
// LSN in dir — where a replica writes a snapshot downloaded from its
// primary so LoadLatest and the generation pruner see it natively.
func SnapshotPath(dir string, lsn uint64) string {
	return filepath.Join(dir, snapName(lsn))
}

// SnapshotLSNs returns the applied LSNs of every snapshot in dir in
// ascending order.
func SnapshotLSNs(dir string) ([]uint64, error) {
	snaps, err := listSnapshots(dir)
	if err != nil {
		return nil, err
	}
	lsns := make([]uint64, len(snaps))
	for i, sn := range snaps {
		lsns[i] = sn.lsn
	}
	return lsns, nil
}

// NewestSnapshot reports the newest snapshot file in dir and its
// applied LSN; ok is false when dir holds no snapshots. It does not
// open the file — callers that need the contents go through LoadLatest,
// which also falls back across corrupt generations.
func NewestSnapshot(dir string) (path string, lsn uint64, ok bool, err error) {
	snaps, err := listSnapshots(dir)
	if err != nil || len(snaps) == 0 {
		return "", 0, false, err
	}
	newest := snaps[len(snaps)-1]
	return filepath.Join(dir, newest.name), newest.lsn, true, nil
}

// DropSnapshotsFrom removes every snapshot in dir whose applied LSN is
// ≥ lsn and returns how many were deleted. A demoted replica truncating
// its divergent WAL tail from lsn must also discard snapshots taken at
// or past that point: they bake in records the new timeline never had.
func DropSnapshotsFrom(dir string, lsn uint64) (int, error) {
	snaps, err := listSnapshots(dir)
	if err != nil {
		return 0, err
	}
	dropped := 0
	for _, sn := range snaps {
		if sn.lsn < lsn {
			continue
		}
		if err := os.Remove(filepath.Join(dir, sn.name)); err != nil {
			return dropped, fmt.Errorf("sessions: drop snapshot: %w", err)
		}
		dropped++
	}
	return dropped, nil
}

type snapInfo struct {
	name string
	lsn  uint64
}

func snapName(lsn uint64) string {
	return fmt.Sprintf("%s%016x%s", snapPrefix, lsn, snapSuffix)
}

// listSnapshots returns the snapshots in dir in ascending LSN order.
func listSnapshots(dir string) ([]snapInfo, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("sessions: %w", err)
	}
	var snaps []snapInfo
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || len(name) != len(snapPrefix)+16+len(snapSuffix) ||
			name[:len(snapPrefix)] != snapPrefix || name[len(name)-len(snapSuffix):] != snapSuffix {
			continue
		}
		var lsn uint64
		if _, err := fmt.Sscanf(name[len(snapPrefix):len(snapPrefix)+16], "%016x", &lsn); err != nil {
			continue
		}
		snaps = append(snaps, snapInfo{name: name, lsn: lsn})
	}
	sort.Slice(snaps, func(i, j int) bool { return snaps[i].lsn < snaps[j].lsn })
	return snaps, nil
}
