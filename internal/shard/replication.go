// Replication hooks: what a shard exposes to the WAL-shipping layer.
// A primary's shards serve positioned reads of their committed log and
// their newest snapshot; a follower's shards apply shipped records at
// the primary's exact LSNs, and — when a deposed primary rejoins a new
// timeline — truncate their divergent tail or reseed wholesale from the
// new primary's snapshot. All of it rides the same breaker/supervisor
// lifecycle as local ingest: a non-serving shard fast-fails, and a
// failing replicated append trips the breaker like any other.
package shard

import (
	"errors"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"
	"time"

	"tsppr/internal/faultinject"
	"tsppr/internal/sessions"
	"tsppr/internal/wal"
)

// NextLSN returns the LSN the shard's next append will be assigned —
// the replication stream position a fully caught-up follower holds.
func (s *Shard) NextLSN() (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.log == nil {
		return 0, s.unavailableLocked()
	}
	return s.log.NextLSN(), nil
}

// ReadWAL delivers up to max committed records with LSN ≥ from to fn
// and returns the resume position — the primary side of the shipping
// stream. The file I/O runs outside the shard lock, so streaming never
// blocks ingest; wal.ErrPruned means the follower must reseed from a
// snapshot instead.
func (s *Shard) ReadWAL(from uint64, max int, fn func(lsn uint64, payload []byte) error) (uint64, error) {
	s.mu.Lock()
	l := s.log
	if l == nil {
		err := s.unavailableLocked()
		s.mu.Unlock()
		return from, err
	}
	s.mu.Unlock()
	return l.ReadFrom(from, max, fn)
}

// SnapshotInfo returns the shard's newest on-disk snapshot, taking one
// first when none exists yet — the reseed source a follower too far
// behind the retained WAL downloads.
func (s *Shard) SnapshotInfo() (path string, lsn uint64, err error) {
	path, lsn, ok, err := sessions.NewestSnapshot(s.dir)
	if err != nil || ok {
		return path, lsn, err
	}
	s.Snapshot()
	path, lsn, ok, err = sessions.NewestSnapshot(s.dir)
	if err == nil && !ok {
		err = fmt.Errorf("shard %d: no snapshot available", s.index)
	}
	return path, lsn, err
}

// ApplyReplicated makes one shipped record durable at exactly the
// primary's LSN and applies it to the owning user's window. Re-delivery
// (lsn below the local log's next) is skipped — the stream resumes
// wherever the tailer last confirmed, and the LSN-idempotent store
// makes the overlap harmless. A gap (lsn above next) is an error: the
// tailer must re-resume rather than let the follower's log silently
// skip LSNs the primary committed.
func (s *Shard) ApplyReplicated(lsn uint64, payload []byte) (applied bool, err error) {
	user, item, err := sessions.DecodeEvent(payload)
	if err != nil {
		return false, fmt.Errorf("shard %d: replicated lsn %d: %w", s.index, lsn, err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.state != Serving {
		return false, s.unavailableLocked()
	}
	defer func() {
		if p := recover(); p != nil {
			s.tripLocked(fmt.Errorf("shard %d: replicated apply panic: %v", s.index, p))
			applied, err = false, s.unavailableLocked()
		}
	}()
	next := s.log.NextLSN()
	if lsn < next {
		return false, nil // already durable here; idempotent re-delivery
	}
	if lsn > next {
		return false, fmt.Errorf("shard %d: replicated lsn %d leaves a gap (local next %d)", s.index, lsn, next)
	}
	if ferr := faultinject.Do(s.point); ferr != nil {
		return false, s.appendFailedLocked(ferr)
	}
	got, aerr := s.log.Append(payload)
	if aerr != nil {
		return false, s.appendFailedLocked(aerr)
	}
	if got != lsn {
		// The log assigned a different LSN than the check above promised —
		// unreachable unless the log was swapped mid-call, which the lock
		// forbids. Trip loudly rather than diverge silently.
		s.tripLocked(fmt.Errorf("shard %d: replicated lsn %d landed at %d", s.index, lsn, got))
		return false, s.unavailableLocked()
	}
	s.failStreak = 0
	s.store.Apply(lsn, user, item)
	s.appendedLocked()
	return true, nil
}

// TruncateAndReload discards every local record with LSN ≥ lsn — the
// shard's divergent tail after its timeline lost a promotion race —
// along with any snapshot that baked those records in, then re-runs the
// snapshot+WAL recovery path so the in-memory store matches the
// truncated log. wal.ErrPruned (the shard cannot rebuild [1, lsn) from
// what it retains) means the caller must Reseed from the new primary's
// snapshot instead; the shard is left serving untouched in that case.
func (s *Shard) TruncateAndReload(lsn uint64) error {
	// Quiesced: a snapshot captured above the cut must have landed before
	// the directory is judged and DropSnapshotsFrom runs, or it would land
	// after and resurrect the divergent timeline on the next recovery.
	s.lockQuiesced()
	if s.state != Serving || s.log == nil {
		err := s.unavailableLocked()
		s.mu.Unlock()
		return err
	}
	if s.log.NextLSN() <= lsn {
		s.mu.Unlock()
		return nil // nothing local at or past the divergence point
	}
	if lsn < s.log.OldestLSN() {
		s.mu.Unlock()
		return fmt.Errorf("shard %d: divergence at %d below retained wal: %w", s.index, lsn, wal.ErrPruned)
	}
	// The reload must rebuild [1, lsn) from what remains after the cut:
	// either a snapshot strictly below lsn, or a log reaching back to
	// its first record. Without one, recovery would silently replay an
	// incomplete prefix — reseed instead.
	snapLSNs, err := sessions.SnapshotLSNs(s.dir)
	if err != nil {
		s.mu.Unlock()
		return fmt.Errorf("shard %d: %w", s.index, err)
	}
	base := s.log.OldestLSN() == 1
	for _, sl := range snapLSNs {
		if sl < lsn {
			base = true
		}
	}
	if !base {
		s.mu.Unlock()
		return fmt.Errorf("shard %d: no recovery base below divergence %d: %w", s.index, lsn, wal.ErrPruned)
	}
	gen := s.gen + 1
	s.gen = gen
	s.state = Recovering
	l := s.log
	s.log = nil
	s.mu.Unlock()

	err = l.TruncateFrom(lsn)
	if cerr := l.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		_, err = sessions.DropSnapshotsFrom(s.dir, lsn)
	}
	var (
		l2     *wal.Log
		store  *sessions.Store
		rstats sessions.RecoverStats
	)
	if err == nil {
		l2, store, rstats, err = openState(s.dir, s.cfg)
	}

	s.mu.Lock()
	if s.gen != gen {
		s.mu.Unlock()
		if l2 != nil {
			l2.Close()
		}
		return fmt.Errorf("shard %d: truncate fenced by concurrent lifecycle change", s.index)
	}
	if err != nil {
		s.lastErr = err
		s.state = Failed
		s.mu.Unlock()
		return fmt.Errorf("shard %d: truncate+reload: %w", s.index, err)
	}
	s.log, s.store, s.rstats = l2, store, rstats
	s.sinceSnapshot = 0
	s.failStreak = 0
	s.state = Serving
	s.mu.Unlock()
	// After the unlock: the hook is a foreign callback (cache purge) and
	// must never run under s.mu. The truncation cut records, so per-user
	// LSNs may have regressed — LSN-versioned layers must drop everything.
	s.storeReloaded()
	log.Printf("shard %d: truncated divergent tail from lsn %d and reloaded", s.index, lsn)
	return nil
}

// quarantineDir holds the previous timeline's files after a reseed —
// forensics for the operator, invisible to recovery and inspect globs.
const quarantineDir = "divergent"

// Reseed replaces the shard's entire local state with a snapshot from
// the new primary: the old WAL segments and snapshots are quarantined
// (not deleted) under divergent/, populate writes the downloaded
// snapshot into the shard directory, and a fresh log opened at
// snapLSN+1 keeps local LSNs identical to the primary's. Works from
// any live state — including Failed, where it is the recovery path.
func (s *Shard) Reseed(snapLSN uint64, populate func(dir string) error) error {
	// Quiesced for the same reason as TruncateAndReload: a straggling
	// snapshot of the old timeline must be in the directory before it is
	// quarantined, not after.
	s.lockQuiesced()
	switch s.state {
	case Serving, Recovering, Restarting, Failed:
	default:
		err := fmt.Errorf("shard %d: cannot reseed while %s", s.index, s.state)
		s.mu.Unlock()
		return err
	}
	gen := s.gen + 1
	s.gen = gen
	s.state = Recovering
	l := s.log
	s.log = nil
	s.mu.Unlock()
	if l != nil {
		l.Close()
	}

	err := quarantineState(s.dir)
	if err == nil {
		err = populate(s.dir)
	}
	var (
		l2     *wal.Log
		store  *sessions.Store
		rstats sessions.RecoverStats
	)
	if err == nil {
		l2, store, rstats, err = openStateAt(s.dir, s.cfg, snapLSN+1)
	}

	s.mu.Lock()
	if s.gen != gen {
		s.mu.Unlock()
		if l2 != nil {
			l2.Close()
		}
		return fmt.Errorf("shard %d: reseed fenced by concurrent lifecycle change", s.index)
	}
	if err != nil {
		s.lastErr = err
		s.state = Failed
		s.mu.Unlock()
		return fmt.Errorf("shard %d: reseed: %w", s.index, err)
	}
	s.log, s.store, s.rstats = l2, store, rstats
	s.sinceSnapshot = 0
	s.failStreak = 0
	s.state = Serving
	s.mu.Unlock()
	// After the unlock, same contract as TruncateAndReload: a reseed
	// replaces state wholesale from a foreign snapshot, so every cached
	// LSN-versioned read is void.
	s.storeReloaded()
	log.Printf("shard %d: reseeded from snapshot lsn %d (old state quarantined)", s.index, snapLSN)
	return nil
}

// quarantineState moves the shard's WAL segments and snapshots into
// quarantineDir, replacing any previous quarantine (only the latest
// divergent timeline is kept for forensics).
func quarantineState(dir string) error {
	q := filepath.Join(dir, quarantineDir)
	if err := os.RemoveAll(q); err != nil {
		return fmt.Errorf("shard: clear quarantine: %w", err)
	}
	if err := os.MkdirAll(q, 0o755); err != nil {
		return fmt.Errorf("shard: quarantine: %w", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("shard: quarantine: %w", err)
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || (!strings.HasPrefix(name, "wal-") && !strings.HasPrefix(name, "sessions-")) {
			continue
		}
		if err := os.Rename(filepath.Join(dir, name), filepath.Join(q, name)); err != nil {
			return fmt.Errorf("shard: quarantine %s: %w", name, err)
		}
	}
	return nil
}

// openStateAt is openState for a reseeded shard: an empty directory
// opens its fresh log at initialLSN so the first shipped record lands
// at the primary's exact LSN.
func openStateAt(dir string, cfg Config, initialLSN uint64) (*wal.Log, *sessions.Store, sessions.RecoverStats, error) {
	l, err := wal.Open(dir, wal.Options{
		Sync:         cfg.Fsync,
		SyncEvery:    cfg.FsyncInterval,
		SegmentBytes: cfg.SegmentBytes,
		Corrupt:      cfg.Corrupt,
		Metrics:      cfg.Metrics,
		InitialLSN:   initialLSN,
	})
	if err != nil {
		return nil, nil, sessions.RecoverStats{}, err
	}
	store, rstats, err := sessions.Recover(dir, l, sessions.Config{
		WindowCap: cfg.WindowCap,
		MaxUsers:  cfg.MaxSessionsPerShard,
		NumUsers:  cfg.NumUsers,
		NumItems:  cfg.NumItems,
	})
	if err != nil {
		l.Close()
		return nil, nil, rstats, err
	}
	return l, store, rstats, nil
}

// CloseTimeout is Close bounded by a deadline: every shard drains in
// parallel (final snapshot, fenced appends), but shards that cannot
// finish within d are abandoned to the process exit and reported in
// missed — their WAL stays authoritative, so nothing acknowledged is
// lost, only the recovery-accelerating snapshot. d ≤ 0 means no bound.
func (p *Pool) CloseTimeout(d time.Duration) (missed []int, err error) {
	if d <= 0 {
		return nil, p.Close()
	}
	type result struct {
		shard int
		err   error
	}
	done := make(chan result, len(p.shards))
	for i, sh := range p.shards {
		go func() {
			done <- result{i, sh.Close()}
		}()
	}
	finished := make([]bool, len(p.shards))
	var errs []error
	deadline := time.NewTimer(d)
	defer deadline.Stop()
	for n := 0; n < len(p.shards); n++ {
		select {
		case r := <-done:
			finished[r.shard] = true
			if r.err != nil {
				errs = append(errs, r.err)
			}
		case <-deadline.C:
			for i := range p.shards {
				if !finished[i] {
					missed = append(missed, i)
				}
			}
			return missed, errors.Join(errs...)
		}
	}
	return nil, errors.Join(errs...)
}
