// Package shard partitions rrc-server's online layer — write-ahead
// event log, per-user session windows, snapshot generations — into N
// independent failure domains keyed by user id. Every online structure
// is already per-user (the paper's model evolves each user's state
// independently), so the partition is clean: shard i owns exactly the
// users with UserShard(u, N) == i, its own WAL directory, its own
// sessions LRU, and its own snapshot generations.
//
// Robustness is the point. A panic inside one shard's ingest or read
// path is absorbed, trips that shard's circuit breaker, and hands the
// shard to a supervisor that restarts it through the existing
// snapshot+WAL recovery path with exponential backoff and a bounded
// attempt budget — while every other shard keeps serving untouched.
// Requests routed to a tripped, draining, or failed shard fast-fail
// with a typed UnavailableError the server maps to 503 + Retry-After;
// requests to healthy shards never observe the failure.
//
// # Lifecycle
//
// A shard moves through the states
//
//	cold → recovering → serving → draining → stopped
//	                 ↘ restarting → recovering → serving (supervised restart)
//	                             ↘ failed (restart budget exhausted)
//
// Serving is the only state that accepts work. Draining (entered by
// Drain: shutdown or POST /admin/drain) fences new appends, flushes a
// final snapshot, and closes the log. Restarting is entered by a
// breaker trip — a panic anywhere in the shard's op path, or
// Config.FailThreshold consecutive append failures — and is owned by
// the supervisor goroutine until the shard is serving again or failed.
//
// # Fault injection
//
// Each shard's ingest path runs through the fault point IngestPoint(i)
// ("shard.<i>.ingest"): a Panic plan simulates a shard-local bug, an
// Error plan a sticky storage failure. The chaos suite uses both to
// prove failure containment under -race.
package shard

import (
	"fmt"
	"log"
	"sync"
	"sync/atomic"
	"time"

	"tsppr/internal/faultinject"
	"tsppr/internal/obs"
	"tsppr/internal/seq"
	"tsppr/internal/sessions"
	"tsppr/internal/wal"
)

// State is a shard's lifecycle state. The numeric values are exported
// on /metrics as rrc_shard_state and are therefore stable.
type State int32

const (
	Cold       State = iota // allocated, recovery not yet started
	Recovering              // snapshot load + WAL tail replay in progress
	Serving                 // healthy: accepting appends and reads
	Draining                // fenced: final snapshot being flushed
	Stopped                 // drained cleanly; terminal for this process
	Restarting              // breaker tripped; supervisor backing off before recovery
	Failed                  // restart budget exhausted; terminal
)

func (s State) String() string {
	switch s {
	case Cold:
		return "cold"
	case Recovering:
		return "recovering"
	case Serving:
		return "serving"
	case Draining:
		return "draining"
	case Stopped:
		return "stopped"
	case Restarting:
		return "restarting"
	case Failed:
		return "failed"
	default:
		return fmt.Sprintf("State(%d)", int32(s))
	}
}

// IngestPoint is the faultinject point name on shard i's ingest path.
func IngestPoint(i int) string { return fmt.Sprintf("shard.%d.ingest", i) }

// UnavailableError reports that the shard owning a request's user is
// not serving. The server maps it to 503 with the Retry-After hint.
type UnavailableError struct {
	Shard      int
	State      State
	RetryAfter time.Duration
	Cause      error // last breaker-trip or recovery error, may be nil
}

func (e *UnavailableError) Error() string {
	msg := fmt.Sprintf("shard %d %s", e.Shard, e.State)
	if e.Cause != nil {
		msg += ": " + e.Cause.Error()
	}
	return msg
}

// Shard is one failure domain: a WAL directory, a session store, and
// the breaker/supervisor state around them. All methods are safe for
// concurrent use; ops on a non-serving shard fail fast, they never
// block on recovery.
type Shard struct {
	index int
	dir   string
	cfg   Config
	point string // faultinject point name, precomputed

	mu            sync.Mutex
	state         State
	gen           int             // bumped on every trip/drain/close; fences stale supervisors
	log           *wal.Log        // nil while the shard is down
	store         *sessions.Store // stale but non-nil while down (fenced by state)
	rstats        sessions.RecoverStats
	sinceSnapshot int
	failStreak    int       // consecutive append failures; breaker input
	retryAt       time.Time // when the supervisor's next restart attempt fires
	restarts      int64
	trips         int64
	lastErr       error

	// snapDone is closed when the background snapshot write started last
	// has finished; nil before the first one. At most one write is in
	// flight (single-flight). The field is guarded by mu, but the writer
	// itself never takes mu — it only closes the channel and bumps the
	// atomics below — so waiting on it with mu held cannot deadlock.
	snapDone     chan struct{}
	snapshots    atomic.Int64
	snapshotErrs atomic.Int64

	// Metric handles, registered by the pool; nil-safe when the pool
	// runs without a registry.
	mRestarts  *obs.Counter
	mTrips     *obs.Counter
	mSnapLock  *obs.Histogram // time mu was held on behalf of a snapshot
	mSnapWrite *obs.Histogram // encode + write + prune, on or off the lock
}

// Index returns the shard's position in the pool.
func (s *Shard) Index() int { return s.index }

// Dir returns the shard's WAL/snapshot directory.
func (s *Shard) Dir() string { return s.dir }

// State returns the shard's current lifecycle state.
func (s *Shard) State() State {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state
}

// Ingest makes one consumption durable in this shard's WAL and applies
// it to the user's window, returning the event's shard-local LSN and
// the window's new length. A panic anywhere inside — including an
// injected one — is absorbed, trips the breaker, and surfaces as an
// UnavailableError; an append failure returns the storage error and
// counts toward the breaker's failure streak.
func (s *Shard) Ingest(user int, item seq.Item) (lsn uint64, winLen int, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.state != Serving {
		return 0, 0, s.unavailableLocked()
	}
	// Declared after the Lock/Unlock pair, so this recover runs with mu
	// still held: tripping and re-reading state under the lock is safe.
	defer func() {
		if p := recover(); p != nil {
			s.tripLocked(fmt.Errorf("shard %d: ingest panic: %v", s.index, p))
			lsn, winLen = 0, 0
			err = s.unavailableLocked()
		}
	}()
	// Chaos hook: Panic plans simulate a shard-local bug (absorbed
	// above), Error plans a sticky storage failure (breaker fodder).
	if ferr := faultinject.Do(s.point); ferr != nil {
		return 0, 0, s.appendFailedLocked(ferr)
	}
	lsn, aerr := s.log.Append(sessions.EncodeEvent(user, item))
	if aerr != nil {
		return 0, 0, s.appendFailedLocked(aerr)
	}
	s.failStreak = 0
	s.store.Apply(lsn, user, item)
	winLen = s.store.WindowLen(user)
	s.appendedLocked()
	return lsn, winLen, nil
}

// UserLSN returns the LSN of the last event applied to user's window —
// the response cache's version probe. Fenced like every other op; read
// panics trip the breaker.
func (s *Shard) UserLSN(user int) (lsn uint64, ok bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.state != Serving {
		return 0, false, s.unavailableLocked()
	}
	defer func() {
		if p := recover(); p != nil {
			s.tripLocked(fmt.Errorf("shard %d: read panic: %v", s.index, p))
			lsn, ok = 0, false
			err = s.unavailableLocked()
		}
	}()
	lsn, ok = s.store.UserLSN(user)
	return lsn, ok, nil
}

// WindowCloneLSN returns a private, queryable copy of user's current
// window together with the LSN of the last event applied to it, or
// ok=false when the user has no session here. The pair is captured
// atomically (see sessions.Store.RingCloneLSN for why it must not be
// read in two steps). Reads are fenced exactly like appends: a
// non-serving shard fast-fails, and a panic while the shard's state is
// read trips the breaker instead of escaping. The shard's lock covers
// only the copy of the resident ring; the window's indexes are built
// after it is released, from that copy alone — no shard state is
// involved, so nothing there can be the shard's fault.
func (s *Shard) WindowCloneLSN(user int) (win *seq.Window, lsn uint64, ok bool, err error) {
	ring, lsn, ok, err := s.ringCloneLSN(user)
	if !ok || err != nil {
		return nil, 0, false, err
	}
	return ring.Window(), lsn, true, nil
}

// ringCloneLSN is the locked, fenced, breaker-guarded half of
// WindowCloneLSN.
func (s *Shard) ringCloneLSN(user int) (ring seq.Ring, lsn uint64, ok bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.state != Serving {
		return seq.Ring{}, 0, false, s.unavailableLocked()
	}
	defer func() {
		if p := recover(); p != nil {
			s.tripLocked(fmt.Errorf("shard %d: read panic: %v", s.index, p))
			ring, lsn, ok = seq.Ring{}, 0, false
			err = s.unavailableLocked()
		}
	}()
	ring, lsn, ok = s.store.RingCloneLSN(user)
	return ring, lsn, ok, nil
}

// storeReloaded fires the pool's OnStoreReload hook (if configured)
// after this shard's in-memory store was replaced wholesale. Callers
// must NOT hold s.mu: the hook is a foreign callback (cache purge).
func (s *Shard) storeReloaded() {
	if s.cfg.OnStoreReload != nil {
		s.cfg.OnStoreReload(s.index)
	}
}

// appendFailedLocked records one append failure and returns the error
// the caller should surface: the storage error itself while under the
// breaker threshold, or the shard's UnavailableError once the streak
// trips it.
func (s *Shard) appendFailedLocked(cause error) error {
	s.failStreak++
	if s.failStreak >= s.cfg.FailThreshold {
		s.tripLocked(fmt.Errorf("shard %d: %d consecutive append failures, last: %w",
			s.index, s.failStreak, cause))
		return s.unavailableLocked()
	}
	return cause
}

// tripLocked opens the breaker: the shard stops serving, releases its
// log to the supervisor, and a restart is scheduled. No-op unless the
// shard is currently serving (a trip can race another trip's recover).
func (s *Shard) tripLocked(cause error) {
	if s.state != Serving {
		return
	}
	log.Printf("shard %d: breaker tripped: %v", s.index, cause)
	s.lastErr = cause
	s.trips++
	s.mTrips.Inc()
	s.state = Restarting
	s.gen++
	old := s.log
	s.log = nil
	s.failStreak = 0
	s.retryAt = time.Now().Add(s.cfg.BackoffBase)
	go s.supervise(s.gen, old, s.snapDone)
}

// supervise owns a tripped shard until it serves again or its restart
// budget is exhausted. Each attempt: back off, re-run the snapshot+WAL
// recovery path, swap the fresh state in. The gen check fences this
// goroutine against a concurrent Drain/Close — a stale supervisor
// discards its work and exits instead of resurrecting a stopped shard.
// snap is the background snapshot write in flight at the trip, if any:
// it still prunes through the dead log and renames into the directory,
// so it is joined before either is touched.
func (s *Shard) supervise(gen int, old *wal.Log, snap <-chan struct{}) {
	if snap != nil {
		<-snap
	}
	if old != nil {
		// Release the dead log's handle; a sticky-failed log may refuse
		// its final sync, which is fine — recovery re-reads the files.
		old.Close()
	}
	backoff := s.cfg.BackoffBase
	for attempt := 1; ; attempt++ {
		if attempt > s.cfg.RestartBudget {
			s.mu.Lock()
			if s.gen == gen && s.state == Restarting {
				s.state = Failed
				log.Printf("shard %d: restart budget (%d) exhausted, shard failed: %v",
					s.index, s.cfg.RestartBudget, s.lastErr)
			}
			s.mu.Unlock()
			return
		}
		// Publish when this attempt will fire so fenced requests can
		// derive an honest Retry-After instead of a fixed guess.
		s.mu.Lock()
		if s.gen != gen || s.state != Restarting {
			s.mu.Unlock()
			return
		}
		s.retryAt = time.Now().Add(backoff)
		s.mu.Unlock()
		time.Sleep(backoff)
		backoff = min(2*backoff, s.cfg.BackoffMax)
		s.mu.Lock()
		if s.gen != gen || s.state != Restarting {
			s.mu.Unlock()
			return
		}
		s.state = Recovering
		s.mu.Unlock()

		// Recovery I/O runs outside the lock so fenced ops stay fast.
		l, store, rstats, err := openState(s.dir, s.cfg)

		s.mu.Lock()
		if s.gen != gen {
			s.mu.Unlock()
			if err == nil {
				l.Close()
			}
			return
		}
		if err != nil {
			s.lastErr = err
			s.state = Restarting
			s.mu.Unlock()
			log.Printf("shard %d: restart attempt %d/%d failed: %v",
				s.index, attempt, s.cfg.RestartBudget, err)
			continue
		}
		s.log, s.store, s.rstats = l, store, rstats
		s.sinceSnapshot = 0
		s.state = Serving
		s.restarts++
		s.mRestarts.Inc()
		s.mu.Unlock()
		s.storeReloaded()
		log.Printf("shard %d: restarted after %d attempt(s) (snapshot lsn=%d, %d record(s) replayed)",
			s.index, attempt, rstats.SnapshotLSN, rstats.Replayed)
		return
	}
}

// Drain gracefully stops a serving shard: fence new appends, flush a
// final snapshot, close the log. Idempotent on an already drained
// shard; an error on a tripped/failed one (there is nothing consistent
// to flush — Close force-stops those).
func (s *Shard) Drain() error {
	s.lockQuiesced()
	defer s.mu.Unlock()
	switch s.state {
	case Draining, Stopped:
		return nil
	case Serving:
	default:
		return fmt.Errorf("shard %d: cannot drain while %s", s.index, s.state)
	}
	s.state = Draining
	s.gen++
	s.finalSnapshotLocked()
	err := s.log.Close()
	s.log = nil
	s.state = Stopped
	return err
}

// Close stops the shard in any state: a serving shard is drained (final
// snapshot), anything else is force-stopped and its supervisor fenced.
func (s *Shard) Close() error {
	s.lockQuiesced()
	defer s.mu.Unlock()
	if s.state == Serving {
		s.state = Draining
		s.gen++
		// Chaos hook: a firing Delay plan here simulates a shard whose
		// final drain wedges (slow disk, giant flush) so shutdown-bound
		// tests can prove the deadline holds. Disarmed in production.
		_ = faultinject.Do("shard.drain")
		s.finalSnapshotLocked()
		err := s.log.Close()
		s.log = nil
		s.state = Stopped
		return err
	}
	s.gen++ // fence any in-flight supervisor
	var err error
	if s.log != nil {
		err = s.log.Close()
		s.log = nil
	}
	s.state = Stopped
	return err
}

// Snapshot flushes the shard's sessions to disk now and returns once the
// file has landed (serving shards only; others are a no-op — their state
// is either already flushed or not consistent). The write runs off the
// shard lock like the periodic ones, so ingest carries on meanwhile.
func (s *Shard) Snapshot() {
	s.lockQuiesced()
	if s.state != Serving {
		s.mu.Unlock()
		return
	}
	done := s.startSnapshotLocked()
	s.mu.Unlock()
	<-done
}

// appendedLocked counts one durable append toward the periodic snapshot
// and starts one when it is due. While the previous write is still in
// flight the count keeps growing and the next append asks again.
func (s *Shard) appendedLocked() {
	if s.cfg.SnapshotEvery <= 0 {
		return
	}
	s.sinceSnapshot++
	if s.sinceSnapshot >= s.cfg.SnapshotEvery && !s.snapshotInFlightLocked() {
		s.startSnapshotLocked()
	}
}

func (s *Shard) snapshotInFlightLocked() bool {
	if s.snapDone == nil {
		return false
	}
	select {
	case <-s.snapDone:
		return false
	default:
		return true
	}
}

// lockQuiesced takes mu with no background snapshot write in flight.
// Every lifecycle transition that touches the shard's directory or
// swaps its log enters through here, and leaves Serving before it
// unlocks, so no new write can start behind its back: whatever a write
// captured before the transition has landed, and been pruned through
// the log it was captured with, by the time the transition looks.
func (s *Shard) lockQuiesced() {
	for {
		s.mu.Lock()
		if !s.snapshotInFlightLocked() {
			return
		}
		done := s.snapDone
		s.mu.Unlock()
		<-done
	}
}

// startSnapshotLocked copies the store under mu — the only part of a
// periodic snapshot ingest waits for — and hands the copy to a
// goroutine that encodes, writes and prunes. The caller has checked
// that no write is in flight. The returned channel closes when the
// write has finished.
func (s *Shard) startSnapshotLocked() <-chan struct{} {
	start := time.Now()
	c := s.store.Capture()
	s.sinceSnapshot = 0
	done := make(chan struct{})
	s.snapDone = done
	s.mSnapLock.ObserveDuration(time.Since(start))
	go func(l *wal.Log) {
		defer close(done)
		start := time.Now()
		_, _, err := c.Write(s.dir)
		s.snapshotWritten(l, err)
		s.mSnapWrite.ObserveDuration(time.Since(start))
	}(s.log)
	return done
}

// finalSnapshotLocked is the synchronous snapshot of a shard leaving
// service: nothing is left to ingest, so it runs whole under mu.
func (s *Shard) finalSnapshotLocked() {
	start := time.Now()
	_, _, err := s.store.Save(s.dir)
	s.snapshotWritten(s.log, err)
	d := time.Since(start)
	s.mSnapLock.ObserveDuration(d)
	s.mSnapWrite.ObserveDuration(d)
}

// snapshotWritten counts a snapshot write's outcome and prunes the
// snapshot generations and the WAL segments covered by the oldest *kept*
// one (the older fallback must stay replayable in case the newest
// snapshot is lost). Failure is counted, never fatal: the WAL alone
// still guarantees recovery. It runs on the background writer, so it
// must not take s.mu; l is the log the snapshot was captured with.
func (s *Shard) snapshotWritten(l *wal.Log, err error) {
	if err != nil {
		s.snapshotErrs.Add(1)
		log.Printf("shard %d: snapshot failed (WAL still authoritative): %v", s.index, err)
		return
	}
	s.snapshots.Add(1)
	horizon, err := sessions.PruneSnapshots(s.dir)
	if err != nil {
		log.Printf("shard %d: snapshot prune: %v", s.index, err)
		return
	}
	if l != nil {
		if err := l.Prune(horizon); err != nil {
			log.Printf("shard %d: wal prune: %v", s.index, err)
		}
	}
}

// unavailableLocked builds the fast-fail error for the current state.
// While a supervised restart is pending, the Retry-After hint is the
// supervisor's actual remaining backoff (floored at 1s so jittery
// clients don't re-arrive a few ms early) — a shard backing off for
// several seconds tells clients exactly that instead of inviting a
// hammering retry loop. States that will not come back (drained,
// failed) hint longer: the caller should re-resolve, not hot-loop.
func (s *Shard) unavailableLocked() error {
	retry := time.Second
	switch s.state {
	case Draining, Stopped, Failed:
		retry = 5 * time.Second
	case Restarting:
		if rem := time.Until(s.retryAt); rem > retry {
			retry = rem
		}
	}
	return &UnavailableError{Shard: s.index, State: s.state, RetryAfter: retry, Cause: s.lastErr}
}

// Status is a point-in-time snapshot of a shard's health, the unit of
// the pool-aggregate gauges and test assertions.
type Status struct {
	Shard        int    `json:"shard"`
	State        string `json:"state"`
	Sessions     int    `json:"sessions"`
	AppliedLSN   uint64 `json:"applied_lsn"`
	Evictions    int64  `json:"evictions"`
	Dropped      int64  `json:"dropped_events"`
	Restarts     int64  `json:"restarts"`
	BreakerTrips int64  `json:"breaker_trips"`
	Snapshots    int64  `json:"snapshots"`
	SnapshotErrs int64  `json:"snapshot_errors"`
	Replayed     int    `json:"replayed"`
	LastError    string `json:"last_error,omitempty"`
}

// Status returns the shard's current status.
func (s *Shard) Status() Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Status{
		Shard:        s.index,
		State:        s.state.String(),
		Restarts:     s.restarts,
		BreakerTrips: s.trips,
		Snapshots:    s.snapshots.Load(),
		SnapshotErrs: s.snapshotErrs.Load(),
		Replayed:     s.rstats.Replayed,
	}
	if s.store != nil {
		st.Sessions = s.store.Len()
		st.AppliedLSN = s.store.AppliedLSN()
		st.Evictions = s.store.Evictions()
		st.Dropped = s.store.Dropped()
	}
	if s.lastErr != nil {
		st.LastError = s.lastErr.Error()
	}
	return st
}

// WALStats returns the shard's current log counters (zero while the
// shard is down — the dead log's handle belongs to the supervisor).
func (s *Shard) WALStats() wal.Stats {
	s.mu.Lock()
	l := s.log
	s.mu.Unlock()
	if l == nil {
		return wal.Stats{}
	}
	return l.Stats()
}

// RecoverStats reports what the shard's most recent recovery rebuilt
// state from.
func (s *Shard) RecoverStats() sessions.RecoverStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rstats
}

// Dump returns the shard's sessions in ascending user order — the
// shard's contribution to the pool-wide state fingerprint.
func (s *Shard) Dump() []sessions.UserWindow {
	s.mu.Lock()
	store := s.store
	s.mu.Unlock()
	if store == nil {
		return nil
	}
	return store.Dump()
}

// openState runs the snapshot+WAL recovery path for one shard
// directory: open (and heal) the log, load the newest usable snapshot,
// replay the tail.
func openState(dir string, cfg Config) (*wal.Log, *sessions.Store, sessions.RecoverStats, error) {
	l, err := wal.Open(dir, wal.Options{
		Sync:         cfg.Fsync,
		SyncEvery:    cfg.FsyncInterval,
		SegmentBytes: cfg.SegmentBytes,
		Corrupt:      cfg.Corrupt,
		Metrics:      cfg.Metrics,
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
