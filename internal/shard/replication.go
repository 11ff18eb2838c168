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

// ApplyReplicated makes a run of shipped records, the first at the
// primary's LSN first and the rest at the LSNs after it, durable with
// one append at exactly those LSNs, then applies them to the owning
// users' windows; it returns how many it applied. Re-delivery (a prefix
// below the local log's next) is skipped — the stream resumes wherever
// the tailer last confirmed, and the LSN-idempotent store makes the
// overlap harmless. A gap (first above next) is an error: the tailer
// must re-resume rather than let the follower's log silently skip LSNs
// the primary committed. A failed append applies nothing.
func (s *Shard) ApplyReplicated(first uint64, payloads [][]byte) (applied int, err error) {
	for i, p := range payloads {
		if _, _, err := sessions.DecodeEvent(p); err != nil {
			return 0, fmt.Errorf("shard %d: replicated lsn %d: %w", s.index, first+uint64(i), err)
		}
	}
	err = s.op("replicated apply", func() error {
		next := s.log.NextLSN()
		if first > next {
			return fmt.Errorf("shard %d: replicated lsn %d leaves a gap (local next %d)", s.index, first, next)
		}
		held := min(next-first, uint64(len(payloads))) // already durable here
		if held == uint64(len(payloads)) {
			return nil
		}
		_, err := s.appendLocked(next, payloads[held:]...)
		if err == nil {
			applied = len(payloads) - int(held)
		}
		return err
	})
	return applied, err
}

// TruncateAndReload discards every local record with LSN ≥ lsn — the
// shard's divergent tail after its timeline lost a promotion race —
// along with any snapshot that baked those records in, then reopens the
// shard so the in-memory store matches the truncated log. wal.ErrPruned
// (the shard cannot rebuild [1, lsn) from what it retains) means the
// caller must Reseed from the new primary's snapshot instead; the shard
// is left serving untouched in that case. A failure after the shard was
// taken down leaves it to the supervisor, which reopens whatever the
// directory holds.
func (s *Shard) TruncateAndReload(lsn uint64) error {
	// Quiesced: a snapshot captured above the cut must have landed before
	// the directory is judged and DropSnapshotsFrom runs, or it would land
	// after and resurrect the divergent timeline on the next recovery.
	s.lockQuiesced()
	if s.state != Serving {
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
	// the newest snapshot below lsn that loads, then the log from just
	// past it. Ask the recovery loader before touching the directory:
	// where it would refuse after the cut, the shard keeps serving and
	// the caller reseeds instead. The load runs under mu: ingest waits
	// for it as it would for the reopen that follows.
	base, _, err := sessions.LoadBelow(s.dir, s.cfg.storeConfig(), lsn)
	if err != nil {
		s.mu.Unlock()
		return fmt.Errorf("shard %d: %w", s.index, err)
	}
	if base.AppliedLSN()+1 < s.log.OldestLSN() {
		s.mu.Unlock()
		return fmt.Errorf("shard %d: no loadable recovery base below divergence %d: %w", s.index, lsn, wal.ErrPruned)
	}
	gen, l := s.takeDownLocked(Recovering)
	s.mu.Unlock()

	err = s.reopen(gen, func() error {
		// Snapshots go first, durably: stopped between the two edits, the
		// directory still recovers to the old timeline, which a retry cuts
		// again — never to a snapshot above the log's end, whose store
		// would skip the new timeline's records at those LSNs.
		err := sessions.DropSnapshotsFrom(s.dir, lsn)
		if err == nil {
			err = faultinject.Do("shard.truncate")
		}
		if err == nil {
			err = l.TruncateFrom(lsn)
		}
		if cerr := l.Close(); err == nil {
			err = cerr
		}
		return err
	})
	if err != nil {
		return fmt.Errorf("shard %d: truncate+reload: %w", s.index, err)
	}
	log.Printf("shard %d: truncated divergent tail from lsn %d and reloaded", s.index, lsn)
	return nil
}

// quarantineDir holds the previous timeline's files after a reseed —
// forensics for the operator, invisible to recovery and inspect globs.
const quarantineDir = "divergent"

// Reseed replaces a serving shard's entire local state with a snapshot
// from the new primary: the old WAL segments and snapshots are
// quarantined (not deleted) under divergent/, populate writes the
// downloaded snapshot at snapLSN into the shard directory, and the
// reopen starts a fresh log at snapLSN+1, keeping local LSNs identical
// to the primary's. If populate or the reopen fails, the supervisor
// reopens what is left — an empty shard at LSN 1 when the download
// failed — and the caller reseeds again once it serves.
func (s *Shard) Reseed(snapLSN uint64, populate func(dir string) error) error {
	// Quiesced for the same reason as TruncateAndReload: a straggling
	// snapshot of the old timeline must be in the directory before it is
	// quarantined, not after.
	s.lockQuiesced()
	if s.state != Serving {
		err := s.unavailableLocked()
		s.mu.Unlock()
		return err
	}
	gen, l := s.takeDownLocked(Recovering)
	s.mu.Unlock()

	err := s.reopen(gen, func() error {
		l.Close()
		if err := quarantineState(s.dir); err != nil {
			return err
		}
		return populate(s.dir)
	})
	if err != nil {
		return fmt.Errorf("shard %d: reseed: %w", s.index, err)
	}
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
