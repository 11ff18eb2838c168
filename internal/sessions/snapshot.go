// Snapshot persistence: periodic whole-store dumps that bound recovery
// time and let the WAL be pruned. A snapshot is a JSON-lines file named
// sessions-<appliedLSN as %016x>.snap written atomically via
// internal/atomicio: line 1 is a header binding the file to its format,
// window capacity, applied LSN, and a CRC32-C of the body; then one
// line per session in ascending user order. The loader takes the lines
// in any order: older builds wrote them least recently used first.
package sessions

import (
	"bufio"
	"bytes"
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
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

// Capture is a point-in-time copy of a store — every window, and the
// applied LSN they add up to — taken under the owner's lock by
// Store.Capture and written out without it by Write. It shares nothing
// with the live store, so the write can run on any goroutine while
// ingest carries on.
type Capture struct {
	windows   []UserWindow
	lsn       uint64
	windowCap int
}

// Capture copies the store's current state, windows in index order,
// out of the slab onto the heap. This is the only part of a snapshot
// that needs the owner's lock: a memory copy, no sorting, no encoding
// and no I/O. Every window's items are a slice of one shared heap
// slice: two allocations for the whole store, not one per user.
func (s *Store) Capture() *Capture {
	total := 0
	for _, i := range s.index {
		total += int(s.slab.slot(i)[0])
	}
	items := make([]seq.Item, 0, total)
	windows := make([]UserWindow, 0, len(s.index))
	for user, i := range s.index {
		start := len(items)
		r := s.slab.ring(s.slab.slot(i))
		items = r.AppendItems(items)
		windows = append(windows, UserWindow{User: user, Pushed: r.T(), Items: items[start:len(items):len(items)]})
	}
	return &Capture{windows: windows, lsn: s.appliedLSN, windowCap: s.cfg.WindowCap}
}

// Dump returns the captured windows in ascending user order, the order
// a snapshot file lists them in. It sorts the capture in place.
func (c *Capture) Dump() []UserWindow {
	slices.SortFunc(c.windows, func(a, b UserWindow) int { return cmp.Compare(a.User, b.User) })
	return c.windows
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
// The windows are sorted by user first, off the owner's lock.
func (c *Capture) Write(dir string) (string, uint64, error) {
	c.Dump() // sorts the windows by user, in place
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
	return LoadBelow(dir, cfg, math.MaxUint64)
}

// LoadBelow is LoadLatest over the snapshots whose applied LSN is below
// lsn: the store recovery would start from once the others are dropped.
func LoadBelow(dir string, cfg Config, lsn uint64) (*Store, RecoverStats, error) {
	var stats RecoverStats
	snaps, err := listSnapshots(dir)
	if err != nil {
		return nil, stats, err
	}
	for i := len(snaps) - 1; i >= 0; i-- { // newest first
		if snaps[i].lsn >= lsn {
			continue
		}
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
	f, err := os.Open(path)
	if err != nil {
		return nil, snapHeader{}, err
	}
	defer f.Close()
	return readSnapshot(f, path, cfg)
}

// readSnapshot decodes a snapshot file's bytes from r; path names it in
// errors.
func readSnapshot(r io.Reader, path string, cfg Config) (*Store, snapHeader, error) {
	var hdr snapHeader
	// Every line, header included, must fit the reader's buffer: a line
	// the format cannot produce at this window capacity is refused before
	// it is decoded, so what a load holds per line is bounded by the
	// capacity, not by what the file claims.
	br := bufio.NewReaderSize(r, snapLineBytes(cfg.WindowCap))
	hdrLine, err := br.ReadSlice('\n')
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
	// half-built store is closed with any error before it.
	s := NewStore(cfg)
	s.appliedLSN = hdr.AppliedLSN
	if err := s.readBody(br, path, hdr); err != nil {
		s.Close()
		return nil, hdr, err
	}
	return s, hdr, nil
}

// readBody restores the snapshot's session lines from br into s.
func (s *Store) readBody(br *bufio.Reader, path string, hdr snapHeader) error {
	var crc uint32
	var uw UserWindow
	n := 0
	for ; ; n++ {
		line, err := br.ReadSlice('\n')
		if err == io.EOF && len(line) == 0 {
			break
		} else if err == bufio.ErrBufferFull {
			return fmt.Errorf("sessions: %s: session %d: line over %d bytes", path, n, br.Size())
		} else if err != nil {
			return fmt.Errorf("sessions: %s: session %d: %w", path, n, err)
		}
		crc = crc32.Update(crc, snapCRC, line)
		uw = UserWindow{Items: uw.Items[:0]} // reuse the line's item storage
		if err := json.Unmarshal(line, &uw); err != nil {
			return fmt.Errorf("sessions: %s: session %d: %w", path, n, err)
		}
		// The snapshot does not record per-user LSNs, so restored
		// sessions inherit the snapshot's applied LSN: a conservative
		// over-stamp (the user's last event is ≤ it) that only matters
		// to cache versioning, where WAL replay past the snapshot
		// re-stamps exactly and a fresh store has no cache to be stale
		// against.
		if err := s.restore(uw.User, uw.Pushed, uw.Items, hdr.AppliedLSN); err != nil {
			return fmt.Errorf("sessions: %s: user %d: %w", path, uw.User, err)
		}
	}
	if crc != hdr.BodyCRC {
		return fmt.Errorf("sessions: %s: body CRC %08x, header says %08x", path, crc, hdr.BodyCRC)
	}
	if n != hdr.Users {
		return fmt.Errorf("sessions: %s: %d sessions, header says %d", path, n, hdr.Users)
	}
	return nil
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
// ≥ lsn and syncs dir, so the removals are durable before it returns. A
// demoted replica truncating its divergent WAL tail from lsn must first
// discard snapshots taken at or past that point: they bake in records
// the new timeline never had.
func DropSnapshotsFrom(dir string, lsn uint64) error {
	snaps, err := listSnapshots(dir)
	if err != nil {
		return err
	}
	for _, sn := range snaps {
		if sn.lsn < lsn {
			continue
		}
		if err := os.Remove(filepath.Join(dir, sn.name)); err != nil {
			return fmt.Errorf("sessions: drop snapshot: %w", err)
		}
	}
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("sessions: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("sessions: sync %s: %w", dir, err)
	}
	return nil
}

// snapLineBytes is the longest line the format writes at window capacity
// windowCap: room for the header, or for a session whose user, push count
// and windowCap items all take their widest decimal form.
func snapLineBytes(windowCap int) int {
	const (
		frame     = 256 // header line, or a session's keys and two ints
		itemBytes = len("-2147483648,")
	)
	return frame + windowCap*itemBytes
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
