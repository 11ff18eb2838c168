// Package wal implements the append-only, segmented write-ahead event
// log behind rrc-server's durable online sessions. Every consumption
// event is appended as a length-prefixed, CRC32-Castagnoli-checksummed
// record before it is applied to the in-memory per-user windows, so a
// crash at any point loses at most the records not yet fsynced (none,
// under the `always` policy) and never corrupts what was already
// durable.
//
// # Record and segment format
//
// A record is
//
//	[4 bytes LE payload length][4 bytes LE CRC32-C of payload][payload]
//
// Append frames a batch of records into one buffer and writes each
// segment's share of it with a single Write call, so a write torn by a
// crash leaves whole records followed by at most one partial record, at
// the tail of the segment, never interleaved garbage. Recovery cuts that
// partial record and nothing else.
//
// Records are numbered by a log sequence number (LSN) starting at 1.
// Segments are files named wal-<firstLSN as %016x>.log; the name pins
// the LSN of the segment's first record, so any record's LSN is its
// segment base plus its index within the segment.
//
// # Recovery semantics
//
// Open scans every segment. A partial record at the tail of the final
// segment is a torn append from a crash: it is truncated away and
// counted. Anything else that loses a record is corruption, and Open and
// every later read refuse it with ErrCorrupt, so damage is never
// silently served: a CRC-mismatched record anywhere, a torn tail of a
// non-final segment, or a segment that ends short of the LSN its
// successor's name pins. A record whose length field is implausible
// (zero or above MaxRecordBytes) means framing is lost; the rest of
// that segment is treated as a torn tail.
package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"time"

	"tsppr/internal/faultinject"
	"tsppr/internal/obs"
)

// ErrCorrupt marks a lost record: a CRC failure, or a segment that ends
// before the records its LSN range promises.
var ErrCorrupt = errors.New("corrupt record")

// ErrPruned reports a positioned read or truncation below the log's
// oldest retained LSN — the records were pruned away behind a snapshot
// and the caller must re-sync from a snapshot instead of the log.
var ErrPruned = errors.New("lsn below oldest retained record")

const (
	headerSize = 8
	segPrefix  = "wal-"
	segSuffix  = ".log"

	// DefaultSegmentBytes is the rotation threshold when
	// Options.SegmentBytes is zero.
	DefaultSegmentBytes = 4 << 20
	// DefaultMaxRecordBytes is the per-record size sanity cap when
	// Options.MaxRecordBytes is zero.
	DefaultMaxRecordBytes = 1 << 20

	// indexStride is the spacing of the in-memory offset index: one entry
	// per this many records, so a positioned read scans at most
	// indexStride-1 records it does not deliver.
	indexStride = 64
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// SyncPolicy selects when appends are fsynced to stable storage.
type SyncPolicy int

const (
	// SyncAlways fsyncs after every append: a record acknowledged to the
	// caller survives any crash.
	SyncAlways SyncPolicy = iota
	// SyncNever leaves flushing to the OS page cache: fastest, loses the
	// whole unflushed suffix on a power failure.
	SyncNever
)

func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncNever:
		return "never"
	default:
		return fmt.Sprintf("SyncPolicy(%d)", int(p))
	}
}

// ParseSyncPolicy maps the -fsync flag values to a policy.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "never":
		return SyncNever, nil
	default:
		return 0, fmt.Errorf("wal: unknown fsync policy %q (want always or never)", s)
	}
}

// Options configures Open. The zero value is a 4 MiB segment, 1 MiB
// record cap and fsync on every append.
type Options struct {
	SegmentBytes   int64 // rotation threshold; 0 → DefaultSegmentBytes
	MaxRecordBytes int   // per-record sanity cap; 0 → DefaultMaxRecordBytes
	Sync           SyncPolicy

	// InitialLSN seeds the first record's LSN when the directory holds
	// no segments yet (0 → 1). A replica reseeded from a snapshot at
	// LSN S opens its fresh log with InitialLSN S+1 so local LSNs stay
	// identical to the primary's. Ignored when segments already exist.
	InitialLSN uint64

	// Metrics, when non-nil, receives append/fsync latency histograms
	// and a rotation counter (rrc_wal_*). Nil records nothing.
	Metrics *obs.Registry
}

// Stats are the log's durability counters, all cumulative since Open.
type Stats struct {
	Appends        int64 // records appended
	Fsyncs         int64 // fsync calls issued
	Rotations      int64 // segment rotations
	TruncatedTails int64 // torn tails truncated at Open
	TruncatedBytes int64 // bytes discarded by tail truncation
	PrunedSegments int64 // segments removed by Prune
}

type segment struct {
	name  string
	first uint64 // LSN of the segment's first record

	// index[k] is the byte offset at which the segment's record
	// k*indexStride starts — or will start, when the segment holds
	// exactly that many records. index[0] is always 0 and
	// len(index) == records/indexStride + 1. Memory only: Open's scan
	// fills it, Append extends it, TruncateFrom replaces it with a
	// shorter copy. Entries are never rewritten in place, so a copy of the
	// slice header taken under Log.mu stays readable after the unlock.
	index []int64
}

// seek returns the index entry at or below lsn: the byte offset to start
// scanning at and the segment-relative index of the record there. An lsn
// outside the segment gets the nearest entry — the first for one below
// it, the last for one past its records.
func (sg segment) seek(lsn uint64) (off int64, idx int) {
	if lsn <= sg.first {
		return 0, 0
	}
	k := int(min((lsn-sg.first)/indexStride, uint64(len(sg.index)-1)))
	return sg.index[k], k * indexStride
}

// Log is an open write-ahead log. All methods are safe for concurrent
// use.
type Log struct {
	mu       sync.Mutex
	dir      string
	opts     Options
	f        *os.File // active (last) segment, positioned at its end
	segments []segment
	segSize  int64
	nextLSN  uint64
	failed   error  // sticky: set when a torn append could not be healed
	rec      []byte // Append's framing buffer, reused across records
	stats    Stats

	// Optional instrumentation, wired by Open from Options.Metrics.
	// The handles are nil when uninstrumented; Counter methods are
	// nil-safe, and the time.Now calls are gated on the histograms.
	mAppend        *obs.Histogram
	mFsync         *obs.Histogram
	mRotations     *obs.Counter
	mReadScanned   *obs.Counter
	mReadDelivered *obs.Counter
}

// Open opens (or creates) the log in dir, recovering it to a consistent
// state: the final segment's torn tail, if any, is truncated away, and
// a log that lost any other record is refused with ErrCorrupt.
func Open(dir string, opts Options) (*Log, error) {
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = DefaultSegmentBytes
	}
	if opts.MaxRecordBytes <= 0 {
		opts.MaxRecordBytes = DefaultMaxRecordBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	segs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	l := &Log{dir: dir, opts: opts}
	if reg := opts.Metrics; reg != nil {
		reg.Help("rrc_wal_append_seconds", "WAL append latency, including policy-driven fsync, per append call: one record on a primary, one stream response on a standby.")
		l.mAppend = reg.Histogram("rrc_wal_append_seconds", obs.LatencyBuckets)
		reg.Help("rrc_wal_fsync_seconds", "WAL fsync latency.")
		l.mFsync = reg.Histogram("rrc_wal_fsync_seconds", obs.LatencyBuckets)
		reg.Help("rrc_wal_rotations_total", "WAL segment rotations.")
		l.mRotations = reg.Counter("rrc_wal_rotations_total")
		reg.Help("rrc_wal_read_scanned_records_total", "Records ReadFrom framed and CRC-checked, delivered or not: recovery's replay and the replication stream.")
		l.mReadScanned = reg.Counter("rrc_wal_read_scanned_records_total")
		reg.Help("rrc_wal_read_delivered_records_total", "Records ReadFrom handed to its caller: recovery's replay and the replication stream.")
		l.mReadDelivered = reg.Counter("rrc_wal_read_delivered_records_total")
	}
	if len(segs) == 0 {
		l.nextLSN = 1
		if opts.InitialLSN > 1 {
			l.nextLSN = opts.InitialLSN
		}
		if err := l.createSegmentLocked(l.nextLSN); err != nil {
			return nil, err
		}
		return l, nil
	}
	for i, sg := range segs {
		last := i == len(segs)-1
		path := filepath.Join(dir, sg.name)
		res, err := scanSegment(path, opts.MaxRecordBytes, nil)
		if err != nil {
			return nil, fmt.Errorf("wal: scan %s: %w", sg.name, err)
		}
		if len(res.corrupt) > 0 {
			return nil, fmt.Errorf("wal: %s: %d CRC-failed record(s), first at index %d: %w",
				sg.name, len(res.corrupt), res.corrupt[0], ErrCorrupt)
		}
		if !last {
			// A non-final segment must end cleanly where the next one's
			// name says: rotation only happens after a complete record. A
			// torn interior is media damage, and a short count means
			// records vanished wholesale.
			want := sg.first + uint64(res.records)
			if got := segs[i+1].first; res.torn > 0 || got != want {
				return nil, fmt.Errorf("wal: %s ends at LSN %d with %d torn byte(s), but %s starts at %d: %w",
					sg.name, want, res.torn, segs[i+1].name, got, ErrCorrupt)
			}
		} else if res.torn > 0 {
			if err := truncateAt(path, res.end); err != nil {
				return nil, err
			}
			l.stats.TruncatedTails++
			l.stats.TruncatedBytes += res.torn
		}
		sg.index = res.index
		if res.records%indexStride == 0 {
			sg.index = append(sg.index, res.end) // where the next record will start
		}
		l.segments = append(l.segments, sg)
		if last {
			l.nextLSN = sg.first + uint64(res.records)
			f, err := os.OpenFile(path, os.O_RDWR, 0o644)
			if err != nil {
				return nil, fmt.Errorf("wal: %w", err)
			}
			if _, err := f.Seek(res.end, io.SeekStart); err != nil {
				f.Close()
				return nil, fmt.Errorf("wal: %w", err)
			}
			l.f = f
			l.segSize = res.end
		}
	}
	return l, nil
}

// Append writes payloads as consecutive records and returns the first
// one's LSN. The records are framed into one reused buffer and each
// segment's share of them goes out in one write; rotation falls between
// the same two records, and the bytes on disk are the same, as for one
// Append per record. Under SyncAlways one fsync covers the whole batch,
// and a nil error means every record is on stable storage. A failed
// write heals back to the batch's start: the torn tail is cut, and
// records of the batch already written to earlier segments go with the
// segments rotated in after them, so the next Append lands at the
// batch's first LSN. If the heal itself fails the log turns
// sticky-failed (further appends are refused), exactly as if the
// process had crashed.
func (l *Log) Append(payloads ...[]byte) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.mAppend != nil {
		start := time.Now()
		defer func() { l.mAppend.ObserveDuration(time.Since(start)) }()
	}
	if l.failed != nil {
		return 0, l.failed
	}
	if len(payloads) == 0 {
		return 0, errors.New("wal: empty batch")
	}
	for _, p := range payloads {
		if len(p) == 0 {
			return 0, errors.New("wal: empty payload")
		}
		if len(p) > l.opts.MaxRecordBytes {
			return 0, fmt.Errorf("wal: payload %d bytes over the %d cap", len(p), l.opts.MaxRecordBytes)
		}
	}
	first := l.nextLSN
	for rest := payloads; len(rest) > 0; {
		if l.segSize >= l.opts.SegmentBytes {
			if err := l.rotateLocked(); err != nil {
				return 0, l.undoLocked(first, false, err)
			}
		}
		// This segment's share: every record that starts below the
		// rotation threshold.
		rec, n := l.rec[:0], 0
		for n < len(rest) && (n == 0 || l.segSize+int64(len(rec)) < l.opts.SegmentBytes) {
			p := rest[n]
			rec = binary.LittleEndian.AppendUint32(rec, uint32(len(p)))
			rec = binary.LittleEndian.AppendUint32(rec, crc32.Checksum(p, castagnoli))
			rec = append(rec, p...)
			n++
		}
		l.rec = rec

		// One Write per share; the fault point simulates a disk-full or
		// a kill mid-append (short write → torn tail).
		w := faultinject.WrapWriter("wal.append", io.Writer(l.f))
		if _, err := w.Write(rec); err != nil {
			return 0, l.undoLocked(first, true, err)
		}
		active := &l.segments[len(l.segments)-1]
		for _, p := range rest[:n] {
			l.segSize += int64(headerSize + len(p))
			l.nextLSN++
			if (l.nextLSN-active.first)%indexStride == 0 {
				active.index = append(active.index, l.segSize)
			}
		}
		rest = rest[n:]
	}
	l.stats.Appends += int64(len(payloads))
	if l.opts.Sync == SyncAlways {
		if err := l.syncLocked(); err != nil {
			return 0, err
		}
	}
	return first, nil
}

// undoLocked heals an append that failed after the batch starting at
// first began: a torn write (torn) is cut from the active segment, and
// records of the batch already in earlier segments are truncated away.
// The "wal.heal" point lets chaos tests suppress the heal, which is
// indistinguishable from dying mid-append. A rotation that fails before
// the batch wrote a byte needs no heal.
func (l *Log) undoLocked(first uint64, torn bool, cause error) error {
	if !torn && l.nextLSN == first {
		return cause
	}
	if herr := faultinject.Do("wal.heal"); herr != nil {
		l.failed = fmt.Errorf("wal: append failed (%v) and log left torn: %w", cause, herr)
		return l.failed
	}
	var err error
	if torn {
		err = l.truncateActiveLocked()
	}
	if err == nil && l.nextLSN > first {
		err = l.truncateFromLocked(first)
	}
	if err != nil {
		l.failed = fmt.Errorf("wal: append failed (%v) and heal failed: %w", cause, err)
		return l.failed
	}
	return fmt.Errorf("wal: append: %w", cause)
}

// truncateActiveLocked cuts the active segment back to the last durable
// record boundary and repositions the write offset there.
func (l *Log) truncateActiveLocked() error {
	if err := l.f.Truncate(l.segSize); err != nil {
		return err
	}
	_, err := l.f.Seek(l.segSize, io.SeekStart)
	return err
}

func (l *Log) syncLocked() error {
	var start time.Time
	if l.mFsync != nil {
		start = time.Now()
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: fsync: %w", err)
	}
	if l.mFsync != nil {
		l.mFsync.ObserveDuration(time.Since(start))
	}
	l.stats.Fsyncs++
	return nil
}

func (l *Log) rotateLocked() error {
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: rotate fsync: %w", err)
	}
	l.stats.Fsyncs++
	if err := l.f.Close(); err != nil {
		return fmt.Errorf("wal: rotate close: %w", err)
	}
	l.f = nil
	if err := l.createSegmentLocked(l.nextLSN); err != nil {
		return err
	}
	l.stats.Rotations++
	l.mRotations.Inc()
	return nil
}

func (l *Log) createSegmentLocked(first uint64) error {
	name := segmentName(first)
	f, err := os.OpenFile(filepath.Join(l.dir, name), os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	l.f = f
	l.segSize = 0
	l.segments = append(l.segments, segment{name: name, first: first, index: []int64{0}})
	syncDir(l.dir)
	return nil
}

// Prune removes whole segments whose every record has LSN ≤ upTo —
// i.e. segments fully covered by a snapshot. The active segment is
// never removed. upTo = 0 is a no-op.
func (l *Log) Prune(upTo uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if upTo == 0 {
		return nil
	}
	kept := l.segments[:0]
	for i, sg := range l.segments {
		if i+1 < len(l.segments) && l.segments[i+1].first <= upTo+1 {
			if err := os.Remove(filepath.Join(l.dir, sg.name)); err != nil {
				return fmt.Errorf("wal: prune: %w", err)
			}
			l.stats.PrunedSegments++
			continue
		}
		kept = append(kept, sg)
	}
	clear(l.segments[len(kept):]) // drop the removed segments' indexes with them
	l.segments = kept
	return nil
}

// NextLSN returns the LSN the next Append will be assigned.
func (l *Log) NextLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextLSN
}

// OldestLSN returns the LSN of the oldest record still retained (the
// first segment's base). Records below it were pruned behind snapshots.
func (l *Log) OldestLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.segments[0].first
}

// errReadDone and errHole are the internal sentinels a ReadFrom callback
// uses to stop a segment scan: once maxRecords have been delivered, and
// at an intact record past a missing one.
var (
	errReadDone = errors.New("wal: read budget exhausted")
	errHole     = errors.New("wal: record missing")
)

// DefaultReadBatch is ReadFrom's record budget when maxRecords ≤ 0.
const DefaultReadBatch = 1024

// ReadFrom delivers up to maxRecords committed records with LSN ≥ from,
// oldest first, and returns the LSN the next ReadFrom should resume at
// (from itself when nothing new is committed — a clean EOF, not an
// error). It is the one reader of a live log: recovery replays through
// it, and so does the replication stream. It does not hold the log lock
// during file I/O: the segment list, their offset indexes and the commit
// horizon are snapshotted under the lock, then the files are read
// independently, so a replication stream never stalls appends. Each
// segment is entered at the index entry at or below the resume point, so
// a read costs the records it delivers plus fewer than indexStride
// before them, however full the segment is. from below the oldest
// retained record returns ErrPruned — the reader must re-sync from a
// snapshot. Records arrive with consecutive LSNs or not at all: a read
// that meets a missing one (CRC-failed, or a segment that ends early)
// stops there with ErrCorrupt and never streams over the hole. A read
// that overlaps a TruncateFrom holds offsets into bytes being cut and
// rewritten: it may fail its checks, it cannot pass them wrongly.
func (l *Log) ReadFrom(from uint64, maxRecords int, fn func(lsn uint64, payload []byte) error) (uint64, error) {
	if maxRecords <= 0 {
		maxRecords = DefaultReadBatch
	}
	if from == 0 {
		from = 1
	}
	l.mu.Lock()
	segs := append([]segment(nil), l.segments...)
	limit := l.nextLSN
	maxRecord := l.opts.MaxRecordBytes
	dir := l.dir
	l.mu.Unlock()

	if len(segs) > 0 && from < segs[0].first {
		return from, fmt.Errorf("wal: read from %d, oldest retained %d: %w", from, segs[0].first, ErrPruned)
	}
	if from >= limit {
		return from, nil
	}
	next := from
	delivered, scanned := 0, 0
	defer func() {
		l.mReadScanned.Add(int64(scanned))
		l.mReadDelivered.Add(int64(delivered))
	}()
	for i, sg := range segs {
		end := limit // LSN just past the records this segment may deliver
		if i+1 < len(segs) {
			if segs[i+1].first <= next {
				continue // segment entirely below the resume point
			}
			end = min(end, segs[i+1].first)
		}
		if sg.first >= limit || delivered >= maxRecords {
			break
		}
		off, idx := sg.seek(next)
		res, err := scanRecords(filepath.Join(dir, sg.name), maxRecord, off, idx, int(end-sg.first), func(idx int, payload []byte) error {
			lsn := sg.first + uint64(idx)
			switch {
			case lsn < next:
				return nil
			case delivered >= maxRecords:
				return errReadDone
			case lsn > next:
				return errHole
			}
			if err := fn(lsn, payload); err != nil {
				return err
			}
			delivered++
			next = lsn + 1
			return nil
		})
		scanned += res.records - idx
		switch {
		case errors.Is(err, errReadDone):
			return next, nil
		case err == nil && next < end && delivered < maxRecords, errors.Is(err, errHole):
			return next, fmt.Errorf("wal: read %s: lsn %d missing: %w", sg.name, next, ErrCorrupt)
		case err != nil:
			return next, fmt.Errorf("wal: read %s: %w", sg.name, err)
		}
	}
	return next, nil
}

// TruncateFrom discards every record with LSN ≥ lsn — the positioned
// write used when a demoted primary rejoins as a follower and must drop
// the unshipped tail that diverged from the new primary's timeline.
// Whole segments past the cut are removed; the segment containing the
// cut is truncated at the exact record boundary and becomes the active
// segment, so the next Append is assigned exactly lsn. lsn ≥ NextLSN is
// a no-op; lsn below the oldest retained record is ErrPruned (the
// caller must discard the whole log and re-sync from a snapshot).
func (l *Log) TruncateFrom(lsn uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.failed != nil {
		return l.failed
	}
	return l.truncateFromLocked(lsn)
}

func (l *Log) truncateFromLocked(lsn uint64) error {
	if lsn >= l.nextLSN {
		return nil
	}
	if lsn < l.segments[0].first {
		return fmt.Errorf("wal: truncate from %d, oldest retained %d: %w", lsn, l.segments[0].first, ErrPruned)
	}
	// Release the active segment handle; the cut may land in any segment.
	if l.f != nil {
		if err := l.f.Sync(); err != nil {
			return fmt.Errorf("wal: truncate fsync: %w", err)
		}
		if err := l.f.Close(); err != nil {
			return fmt.Errorf("wal: truncate close: %w", err)
		}
		l.f = nil
	}
	cut := 0
	for i, sg := range l.segments {
		if sg.first <= lsn {
			cut = i
		}
	}
	for _, sg := range l.segments[cut+1:] {
		if err := os.Remove(filepath.Join(l.dir, sg.name)); err != nil {
			return fmt.Errorf("wal: truncate remove %s: %w", sg.name, err)
		}
	}
	l.segments = l.segments[:cut+1]
	sg := l.segments[cut]
	path := filepath.Join(l.dir, sg.name)
	if sg.first == lsn {
		// The cut lands on the segment's first record: the whole segment
		// goes, replaced by a fresh empty one with the same base.
		if err := os.Remove(path); err != nil {
			return fmt.Errorf("wal: truncate remove %s: %w", sg.name, err)
		}
		l.segments = l.segments[:cut]
		l.nextLSN = lsn
		if err := l.createSegmentLocked(lsn); err != nil {
			return err
		}
		syncDir(l.dir)
		return nil
	}
	// The cut offset is where record n starts: enter at the index entry at
	// or below it and frame the records in between.
	n := int(lsn - sg.first)
	off, idx := sg.seek(lsn)
	res, err := scanRecords(path, l.opts.MaxRecordBytes, off, idx, n, nil)
	if err == nil && res.records < n {
		err = fmt.Errorf("record %d: framing lost at offset %d: %w", res.records, res.end, ErrCorrupt)
	}
	if err != nil {
		return fmt.Errorf("wal: truncate %s: %w", sg.name, err)
	}
	off = res.end
	if err := truncateAt(path, off); err != nil {
		return err
	}
	l.segments[cut].index = slices.Clone(sg.index[:n/indexStride+1])
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if _, err := f.Seek(off, io.SeekStart); err != nil {
		f.Close()
		return fmt.Errorf("wal: %w", err)
	}
	l.f = f
	l.segSize = off
	l.nextLSN = lsn
	syncDir(l.dir)
	return nil
}

// Stats returns a copy of the durability counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.stats
}

// Close fsyncs (best effort under sticky failure) and closes the active
// segment. The log must not be used afterwards.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	var errs []error
	if l.failed == nil {
		if err := l.syncLocked(); err != nil {
			errs = append(errs, err)
		}
	}
	if err := l.f.Close(); err != nil {
		errs = append(errs, fmt.Errorf("wal: close: %w", err))
	}
	l.f = nil
	return errors.Join(errs...)
}

// scanResult summarizes one pass over a segment's records.
type scanResult struct {
	records int     // index just past the last framed record, intact or corrupt
	good    int     // records whose CRC verified
	corrupt []int   // segment-relative indices of CRC-failed records
	index   []int64 // start offset of every framed record at a multiple of indexStride
	end     int64   // offset just past the last framed record
	torn    int64   // trailing bytes after end that do not frame a record
}

// scanSegment walks one whole segment file; see scanRecords.
func scanSegment(path string, maxRecord int, deliver func(idx int, payload []byte) error) (scanResult, error) {
	return scanRecords(path, maxRecord, 0, 0, math.MaxInt, deliver)
}

// scanRecords walks the records [idx, stop) of one segment file, off
// being the byte offset at which record idx starts, and delivers each
// intact payload to deliver (which may be nil) with its segment-relative
// index. It stops early at the first framing loss (partial header or
// payload, or an implausible length) and reports the remainder as a
// torn tail. Every reader of segment bytes goes through here, so
// framing and CRC rules cannot drift between Open, ReadFrom,
// TruncateFrom and Verify.
func scanRecords(path string, maxRecord int, off int64, idx, stop int, deliver func(idx int, payload []byte) error) (scanResult, error) {
	res := scanResult{records: idx, end: off}
	f, err := os.Open(path)
	if err != nil {
		return res, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return res, err
	}
	size := st.Size()
	if _, err := f.Seek(off, io.SeekStart); err != nil {
		return res, err
	}
	br := bufio.NewReader(f)
	hdr := make([]byte, headerSize)
	var payload []byte
	for res.records < stop {
		if _, err := io.ReadFull(br, hdr); err != nil {
			if err == io.EOF {
				return res, nil // clean end
			}
			if err == io.ErrUnexpectedEOF {
				res.torn = size - res.end
				return res, nil
			}
			return res, err
		}
		n := int(binary.LittleEndian.Uint32(hdr[0:4]))
		want := binary.LittleEndian.Uint32(hdr[4:8])
		if n <= 0 || n > maxRecord {
			res.torn = size - res.end // framing lost
			return res, nil
		}
		if cap(payload) < n {
			payload = make([]byte, n)
		}
		payload = payload[:n]
		if _, err := io.ReadFull(br, payload); err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				res.torn = size - res.end
				return res, nil
			}
			return res, err
		}
		idx := res.records
		if idx%indexStride == 0 {
			res.index = append(res.index, res.end)
		}
		res.records++
		res.end += int64(headerSize + n)
		if crc32.Checksum(payload, castagnoli) != want {
			res.corrupt = append(res.corrupt, idx)
			continue
		}
		res.good++
		if deliver != nil {
			if err := deliver(idx, payload); err != nil {
				return res, err
			}
		}
	}
	return res, nil
}

func segmentName(first uint64) string {
	return fmt.Sprintf("%s%016x%s", segPrefix, first, segSuffix)
}

func listSegments(dir string) ([]segment, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	var segs []segment
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || len(name) != len(segPrefix)+16+len(segSuffix) ||
			name[:len(segPrefix)] != segPrefix || name[len(name)-len(segSuffix):] != segSuffix {
			continue
		}
		var first uint64
		if _, err := fmt.Sscanf(name[len(segPrefix):len(segPrefix)+16], "%016x", &first); err != nil {
			continue
		}
		segs = append(segs, segment{name: name, first: first})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].first < segs[j].first })
	for i := 1; i < len(segs); i++ {
		if segs[i].first <= segs[i-1].first {
			return nil, fmt.Errorf("wal: segments %s and %s overlap", segs[i-1].name, segs[i].name)
		}
	}
	return segs, nil
}

func truncateAt(path string, off int64) error {
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	defer f.Close()
	if err := f.Truncate(off); err != nil {
		return fmt.Errorf("wal: truncate torn tail of %s: %w", path, err)
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	return nil
}

// syncDir best-effort fsyncs a directory so entry creation/removal is
// durable, mirroring internal/atomicio.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		d.Close()
	}
}

// SegmentReport is Verify's per-segment summary.
type SegmentReport struct {
	Name     string
	FirstLSN uint64
	Bytes    int64
	Records  int   // framed records, intact or corrupt
	Good     int   // records whose CRC verified
	Corrupt  []int // segment-relative indices of CRC failures
	TornTail int64 // trailing bytes that frame no record (0 = clean)
}

// Report is Verify's whole-log summary.
type Report struct {
	Dir            string
	Segments       []SegmentReport
	Records        int
	Good           int
	CorruptRecords int
	TornSegments   int
}

// Clean reports whether the log has no CRC failures and no torn tails.
func (r Report) Clean() bool { return r.CorruptRecords == 0 && r.TornSegments == 0 }

// Verify stream-checks every segment in dir without opening or mutating
// the log — the one reader of a log directory, rrc-inspect's read-only
// counterpart of Open. fn, when non-nil, receives every CRC-intact
// record with its LSN, oldest first; a damaged record is reported, not
// delivered. maxRecord ≤ 0 uses DefaultMaxRecordBytes.
func Verify(dir string, maxRecord int, fn func(lsn uint64, payload []byte) error) (Report, error) {
	if maxRecord <= 0 {
		maxRecord = DefaultMaxRecordBytes
	}
	rep := Report{Dir: dir}
	segs, err := listSegments(dir)
	if err != nil {
		return rep, err
	}
	for _, sg := range segs {
		path := filepath.Join(dir, sg.name)
		var deliver func(idx int, payload []byte) error
		if fn != nil {
			deliver = func(idx int, payload []byte) error { return fn(sg.first+uint64(idx), payload) }
		}
		res, err := scanSegment(path, maxRecord, deliver)
		if err != nil {
			return rep, fmt.Errorf("wal: verify %s: %w", sg.name, err)
		}
		st, err := os.Stat(path)
		if err != nil {
			return rep, fmt.Errorf("wal: %w", err)
		}
		rep.Segments = append(rep.Segments, SegmentReport{
			Name:     sg.name,
			FirstLSN: sg.first,
			Bytes:    st.Size(),
			Records:  res.records,
			Good:     res.good,
			Corrupt:  res.corrupt,
			TornTail: res.torn,
		})
		rep.Records += res.records
		rep.Good += res.good
		rep.CorruptRecords += len(res.corrupt)
		if res.torn > 0 {
			rep.TornSegments++
		}
	}
	return rep, nil
}
