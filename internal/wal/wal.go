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
// written with a single Write call, so a torn write can only produce a
// partial record at the tail of a segment, never interleaved garbage.
// Records are numbered by a log sequence number (LSN) starting at 1.
// Segments are files named wal-<firstLSN as %016x>.log; the name pins
// the LSN of the segment's first record, so any record's LSN is its
// segment base plus its index within the segment.
//
// # Recovery semantics
//
// Open scans every segment. A partial record at the tail of the final
// segment is a torn append from a crash: it is truncated away and
// counted. A CRC-mismatched record anywhere, or a torn tail of a
// non-final segment, is corruption: under the default CorruptHalt
// policy Open refuses the log (wrapping ErrCorrupt) so damage is never
// silently served; under CorruptSkip the record is skipped, counted,
// and its LSN slot left unapplied. A record whose length field is
// implausible (zero or above MaxRecordBytes) means framing is lost;
// the rest of that segment is treated as a torn tail.
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

// ErrCorrupt marks a CRC failure or framing loss detected under the
// CorruptHalt policy.
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
	// DefaultSyncEvery is the SyncInterval batching period when
	// Options.SyncEvery is zero.
	DefaultSyncEvery = 100 * time.Millisecond

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
	// SyncInterval fsyncs lazily at most once per Options.SyncEvery: a
	// crash loses at most the records appended since the last sync.
	SyncInterval
	// SyncNever leaves flushing to the OS page cache: fastest, loses the
	// whole unflushed suffix on a power failure.
	SyncNever
)

func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
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
	case "interval":
		return SyncInterval, nil
	case "never":
		return SyncNever, nil
	default:
		return 0, fmt.Errorf("wal: unknown fsync policy %q (want always, interval, or never)", s)
	}
}

// CorruptPolicy selects what Open and Replay do with a CRC-mismatched
// record.
type CorruptPolicy int

const (
	// CorruptHalt (default) refuses the log: corruption is an operator
	// problem, not something to paper over.
	CorruptHalt CorruptPolicy = iota
	// CorruptSkip quarantines the record behind the SkippedCorrupt
	// counter and keeps going.
	CorruptSkip
)

// Options configures Open. The zero value is a 4 MiB segment, 1 MiB
// record cap, fsync on every append, and halt on corruption.
type Options struct {
	SegmentBytes   int64 // rotation threshold; 0 → DefaultSegmentBytes
	MaxRecordBytes int   // per-record sanity cap; 0 → DefaultMaxRecordBytes
	Sync           SyncPolicy
	SyncEvery      time.Duration // SyncInterval batching period; 0 → DefaultSyncEvery
	Corrupt        CorruptPolicy

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
	Appends          int64 // records appended
	Fsyncs           int64 // fsync calls issued
	Rotations        int64 // segment rotations
	RecoveredRecords int64 // records delivered by Replay
	TruncatedTails   int64 // torn tails truncated at Open
	TruncatedBytes   int64 // bytes discarded by tail truncation
	SkippedCorrupt   int64 // corrupt records quarantined under CorruptSkip
	PrunedSegments   int64 // segments removed by Prune
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
// it, the last for one past its records (a hole left by CorruptSkip).
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
	lastSync time.Time
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
// corrupt records are refused or quarantined per Options.Corrupt.
func Open(dir string, opts Options) (*Log, error) {
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = DefaultSegmentBytes
	}
	if opts.MaxRecordBytes <= 0 {
		opts.MaxRecordBytes = DefaultMaxRecordBytes
	}
	if opts.SyncEvery <= 0 {
		opts.SyncEvery = DefaultSyncEvery
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	segs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	l := &Log{dir: dir, opts: opts, lastSync: time.Now()}
	if reg := opts.Metrics; reg != nil {
		reg.Help("rrc_wal_append_seconds", "WAL record append latency (including policy-driven fsync).")
		l.mAppend = reg.Histogram("rrc_wal_append_seconds", obs.LatencyBuckets)
		reg.Help("rrc_wal_fsync_seconds", "WAL fsync latency.")
		l.mFsync = reg.Histogram("rrc_wal_fsync_seconds", obs.LatencyBuckets)
		reg.Help("rrc_wal_rotations_total", "WAL segment rotations.")
		l.mRotations = reg.Counter("rrc_wal_rotations_total")
		reg.Help("rrc_wal_read_scanned_records_total", "Records ReadFrom framed and CRC-checked, delivered or not.")
		l.mReadScanned = reg.Counter("rrc_wal_read_scanned_records_total")
		reg.Help("rrc_wal_read_delivered_records_total", "Records ReadFrom handed to its caller.")
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
			if opts.Corrupt == CorruptHalt {
				return nil, fmt.Errorf("wal: %s: %d CRC-failed record(s), first at index %d: %w",
					sg.name, len(res.corrupt), res.corrupt[0], ErrCorrupt)
			}
			l.stats.SkippedCorrupt += int64(len(res.corrupt))
		}
		if res.torn > 0 {
			if !last {
				// A non-final segment must end cleanly: rotation only
				// happens after a complete record. A torn interior is
				// media damage, and the records past it are unreadable.
				if opts.Corrupt == CorruptHalt {
					return nil, fmt.Errorf("wal: %s: torn tail of %d bytes in a non-final segment: %w",
						sg.name, res.torn, ErrCorrupt)
				}
				l.stats.SkippedCorrupt++
			} else {
				if err := truncateAt(path, res.end); err != nil {
					return nil, err
				}
				l.stats.TruncatedTails++
				l.stats.TruncatedBytes += res.torn
			}
		}
		if !last {
			// The next segment's name pins where this one must have
			// ended; a mismatch means records vanished wholesale.
			want := sg.first + uint64(res.records)
			if got := segs[i+1].first; got != want && opts.Corrupt == CorruptHalt {
				return nil, fmt.Errorf("wal: %s ends at LSN %d but %s starts at %d: %w",
					sg.name, want, segs[i+1].name, got, ErrCorrupt)
			}
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

// Append writes payload as one record and returns its LSN. Under
// SyncAlways a nil error means the record is on stable storage. A write
// error leaves a torn tail which Append heals by truncating back to the
// pre-write offset; if the heal itself fails the log turns sticky-failed
// (further appends are refused), exactly as if the process had crashed.
func (l *Log) Append(payload []byte) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.mAppend != nil {
		start := time.Now()
		defer func() { l.mAppend.ObserveDuration(time.Since(start)) }()
	}
	if l.failed != nil {
		return 0, l.failed
	}
	if len(payload) == 0 {
		return 0, errors.New("wal: empty payload")
	}
	if len(payload) > l.opts.MaxRecordBytes {
		return 0, fmt.Errorf("wal: payload %d bytes over the %d cap", len(payload), l.opts.MaxRecordBytes)
	}
	if l.segSize >= l.opts.SegmentBytes {
		if err := l.rotateLocked(); err != nil {
			return 0, err
		}
	}
	if n := headerSize + len(payload); cap(l.rec) < n {
		l.rec = make([]byte, n)
	}
	rec := l.rec[:headerSize+len(payload)]
	binary.LittleEndian.PutUint32(rec[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(rec[4:8], crc32.Checksum(payload, castagnoli))
	copy(rec[headerSize:], payload)

	// One Write per record; the fault point simulates a disk-full or a
	// kill mid-append (short write → torn tail).
	w := faultinject.WrapWriter("wal.append", io.Writer(l.f))
	if _, err := w.Write(rec); err != nil {
		// The tail may now hold a partial record. Heal by truncating it
		// away; the "wal.heal" point lets chaos tests suppress the heal,
		// which is indistinguishable from dying mid-append.
		if herr := faultinject.Do("wal.heal"); herr != nil {
			l.failed = fmt.Errorf("wal: append failed (%v) and log left torn: %w", err, herr)
			return 0, l.failed
		}
		if terr := l.truncateActiveLocked(); terr != nil {
			l.failed = fmt.Errorf("wal: append failed (%v) and heal failed: %w", err, terr)
			return 0, l.failed
		}
		return 0, fmt.Errorf("wal: append: %w", err)
	}
	l.segSize += int64(len(rec))
	lsn := l.nextLSN
	l.nextLSN++
	l.stats.Appends++
	if active := &l.segments[len(l.segments)-1]; (l.nextLSN-active.first)%indexStride == 0 {
		active.index = append(active.index, l.segSize)
	}
	switch l.opts.Sync {
	case SyncAlways:
		if err := l.syncLocked(); err != nil {
			return 0, err
		}
	case SyncInterval:
		if time.Since(l.lastSync) >= l.opts.SyncEvery {
			if err := l.syncLocked(); err != nil {
				return 0, err
			}
		}
	}
	return lsn, nil
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

// Sync forces an fsync of the active segment regardless of policy.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.failed != nil {
		return l.failed
	}
	return l.syncLocked()
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
	l.lastSync = time.Now()
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

// Replay streams every intact record with LSN ≥ from, oldest first, to
// fn. Corrupt records are skipped (their LSN slots are simply absent)
// under CorruptSkip and refused under CorruptHalt; Open has already
// enforced the same policy, so under CorruptHalt a successful Open
// guarantees a clean Replay unless the disk changed underneath.
func (l *Log) Replay(from uint64, fn func(lsn uint64, payload []byte) error) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	for i, sg := range l.segments {
		if i+1 < len(l.segments) && l.segments[i+1].first <= from {
			continue // segment entirely below the replay horizon
		}
		path := filepath.Join(l.dir, sg.name)
		res, err := scanSegment(path, l.opts.MaxRecordBytes, func(idx int, payload []byte) error {
			lsn := sg.first + uint64(idx)
			if lsn < from {
				return nil
			}
			if err := fn(lsn, payload); err != nil {
				return err
			}
			l.stats.RecoveredRecords++
			return nil
		})
		if err != nil {
			return fmt.Errorf("wal: replay %s: %w", sg.name, err)
		}
		if (len(res.corrupt) > 0 || (res.torn > 0 && i+1 < len(l.segments))) && l.opts.Corrupt == CorruptHalt {
			return fmt.Errorf("wal: replay %s: corruption appeared after open: %w", sg.name, ErrCorrupt)
		}
	}
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

// errReadDone is the internal sentinel a bounded ReadFrom uses to stop a
// segment scan once maxRecords have been delivered.
var errReadDone = errors.New("wal: read budget exhausted")

// DefaultReadBatch is ReadFrom's record budget when maxRecords ≤ 0.
const DefaultReadBatch = 1024

// ReadFrom delivers up to maxRecords committed records with LSN ≥ from,
// oldest first, and returns the LSN the next ReadFrom should resume at
// (from itself when nothing new is committed — a clean EOF, not an
// error). Unlike Replay it does not hold the log lock during file I/O:
// the segment list, their offset indexes and the commit horizon are
// snapshotted under the lock, then the files are read independently, so
// a replication stream never stalls appends. Each segment is entered at
// the index entry at or below the resume point, so a read costs the
// records it delivers plus fewer than indexStride before them, however
// full the segment is. from below the oldest retained record returns
// ErrPruned — the reader must re-sync from a snapshot. A read that
// overlaps a TruncateFrom holds offsets into bytes being cut and
// rewritten: it may fail its CRC checks, it cannot pass them wrongly.
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
	corrupt := l.opts.Corrupt
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
			if lsn < next {
				return nil
			}
			if delivered >= maxRecords {
				return errReadDone
			}
			if err := fn(lsn, payload); err != nil {
				return err
			}
			delivered++
			next = lsn + 1
			return nil
		})
		scanned += res.records - idx
		if err != nil {
			if errors.Is(err, errReadDone) {
				return next, nil
			}
			return next, fmt.Errorf("wal: read %s: %w", sg.name, err)
		}
		// A CRC-failed record inside the read range is a hole a reader
		// cannot stream over: under CorruptHalt refuse; under CorruptSkip
		// it is already quarantined and the LSN slot is simply absent.
		if corrupt == CorruptHalt {
			for _, idx := range res.corrupt {
				if lsn := sg.first + uint64(idx); lsn >= from && lsn < limit {
					return next, fmt.Errorf("wal: read %s: record %d (lsn %d): %w", sg.name, idx, lsn, ErrCorrupt)
				}
			}
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

// ScanDir streams every framed, CRC-intact record in dir with its LSN,
// oldest first, without opening (or mutating) the log — the read-only
// iterator behind rrc-inspect's divergence check between two replica
// roots. Corrupt records are reported, not delivered. maxRecord ≤ 0
// uses DefaultMaxRecordBytes.
func ScanDir(dir string, maxRecord int, fn func(lsn uint64, payload []byte) error) (corrupt int, err error) {
	if maxRecord <= 0 {
		maxRecord = DefaultMaxRecordBytes
	}
	segs, err := listSegments(dir)
	if err != nil {
		return 0, err
	}
	for _, sg := range segs {
		res, err := scanSegment(filepath.Join(dir, sg.name), maxRecord, func(idx int, payload []byte) error {
			return fn(sg.first+uint64(idx), payload)
		})
		if err != nil {
			return corrupt, fmt.Errorf("wal: scan %s: %w", sg.name, err)
		}
		corrupt += len(res.corrupt)
	}
	return corrupt, nil
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
// framing and CRC rules cannot drift between recovery, replay,
// positioned reads and truncation.
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

// Verify stream-checks every segment in dir without mutating anything —
// the read-only counterpart of Open for rrc-inspect. maxRecord ≤ 0 uses
// DefaultMaxRecordBytes.
func Verify(dir string, maxRecord int) (Report, error) {
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
		res, err := scanSegment(path, maxRecord, nil)
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
