// Package sessions holds rrc-server's online per-user consumption
// state: a map of user → time window W_ut, fed by WAL-appended
// consumption events and recoverable after a crash from the latest
// snapshot plus a WAL tail replay. A window is the user's last |W|
// consumption steps with no condition: once a user has consumed, their
// window stays resident and is never evicted.
//
// A resident session is exactly what a snapshot line holds — the ring of
// the last |W| item ids and its push count (seq.Ring) — because that is
// all a window is; the indexed seq.Window a request scores against is
// materialised from a copy of the ring per read, outside the owner's
// lock.
//
// A Store has no lock of its own. Its owner — one shard — serialises
// every call under the one lock that also orders the shard's log, so an
// append and the window it advances are one critical section.
//
// The store is deliberately dumb about durability: callers append to
// the WAL first and Apply second, so the on-disk log is always ahead of
// (or equal to) memory and recovery can only over-replay, never invent.
// Apply is idempotent over LSNs, which makes the over-replay harmless.
package sessions

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"tsppr/internal/seq"
	"tsppr/internal/wal"
)

// Config sizes a Store.
type Config struct {
	WindowCap int // |W| per user; required > 0
	NumUsers  int // user-id validity bound; 0 → unbounded
	NumItems  int // item-id validity bound; 0 → unbounded
}

// Store is the in-memory session state. It is not safe for concurrent
// use: its owner serialises every call.
type Store struct {
	cfg        Config
	users      map[int]*entry
	appliedLSN uint64
	dropped    int64 // replayed events outside the configured id bounds
}

type entry struct {
	ring seq.Ring
	lsn  uint64 // LSN of the last event applied to this window
}

// NewStore returns an empty store. It panics on a non-positive window
// capacity, mirroring seq.NewWindow.
func NewStore(cfg Config) *Store {
	if cfg.WindowCap <= 0 {
		panic(fmt.Sprintf("sessions: window capacity %d <= 0", cfg.WindowCap))
	}
	return &Store{cfg: cfg, users: make(map[int]*entry)}
}

// Apply advances user's window with item as the event at the given LSN.
// Events at or below the store's applied LSN are duplicates from a WAL
// over-replay and are ignored; events outside the configured user/item
// bounds are dropped and counted, never applied. It reports whether the
// event advanced state.
func (s *Store) Apply(lsn uint64, user int, item seq.Item) bool {
	if lsn <= s.appliedLSN {
		return false
	}
	s.appliedLSN = lsn
	if user < 0 || (s.cfg.NumUsers > 0 && user >= s.cfg.NumUsers) ||
		item < 0 || (s.cfg.NumItems > 0 && int(item) >= s.cfg.NumItems) {
		s.dropped++
		return false
	}
	e, ok := s.users[user]
	if !ok {
		e = &entry{ring: seq.NewRing(s.cfg.WindowCap)}
		s.users[user] = e
	}
	e.ring.Push(item)
	e.lsn = lsn
	return true
}

// UserLSN returns the LSN of the last event applied to user's window.
// It is the response cache's version probe: an entry cached under this
// LSN is current.
func (s *Store) UserLSN(user int) (uint64, bool) {
	e, ok := s.users[user]
	if !ok {
		return 0, false
	}
	return e.lsn, true
}

// RingCloneLSN returns an independent copy of user's resident ring and
// the LSN of the last event applied to it, as one pair. Callers that
// cache the scored result keyed by LSN need the pair to be atomic:
// copying and then asking for the LSN under a separate hold of the
// owner's lock could tag a pre-consume window with a post-consume LSN,
// making a stale cache entry look current forever. The copy is one
// ≤ |W|-item slice; the window a request scores against is built from
// it after the owner's lock is released.
func (s *Store) RingCloneLSN(user int) (seq.Ring, uint64, bool) {
	e, ok := s.users[user]
	if !ok {
		return seq.Ring{}, 0, false
	}
	return e.ring.Clone(), e.lsn, true
}

// WindowLen returns the current length of user's window (0 when the
// user has no session).
func (s *Store) WindowLen(user int) int {
	if e, ok := s.users[user]; ok {
		return e.ring.Len()
	}
	return 0
}

// Len returns the number of live sessions.
func (s *Store) Len() int {
	return len(s.users)
}

// AppliedLSN returns the LSN of the last event observed (applied or
// dropped).
func (s *Store) AppliedLSN() uint64 {
	return s.appliedLSN
}

// Dropped returns how many events were outside the id bounds.
func (s *Store) Dropped() int64 {
	return s.dropped
}

// UserWindow is one session in serializable form (see seq.Snapshot).
type UserWindow struct {
	User   int        `json:"u"`
	Pushed int        `json:"t"`
	Items  []seq.Item `json:"w"`
}

// eventSize is the wire size of one encoded consumption event.
const eventSize = 8

// EncodeEvent serializes one consumption event as the WAL payload:
// little-endian uint32 user, uint32 item.
func EncodeEvent(user int, item seq.Item) []byte {
	return AppendEvent(make([]byte, 0, eventSize), user, item)
}

// AppendEvent appends the EncodeEvent form of one consumption event to b.
func AppendEvent(b []byte, user int, item seq.Item) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(user))
	return binary.LittleEndian.AppendUint32(b, uint32(item))
}

// DecodeEvent is the inverse of EncodeEvent.
func DecodeEvent(b []byte) (user int, item seq.Item, err error) {
	if len(b) != eventSize {
		return 0, 0, fmt.Errorf("sessions: event payload %d bytes, want %d", len(b), eventSize)
	}
	return int(binary.LittleEndian.Uint32(b[0:4])), seq.Item(binary.LittleEndian.Uint32(b[4:8])), nil
}

// RecoverStats describes what Recover rebuilt state from.
type RecoverStats struct {
	SnapshotPath     string // "" when no usable snapshot existed
	SnapshotLSN      uint64
	SnapshotUsers    int
	SnapshotsSkipped int // unreadable/corrupt snapshots passed over
	Replayed         int // WAL records applied after the snapshot
}

// Recover rebuilds a store from dir: the newest loadable snapshot, then
// every WAL record past the snapshot's LSN, read through the log's one
// reader. A corrupt or incompatible snapshot falls back to the next
// older one (and ultimately to a full-log replay), so a crash
// mid-snapshot can slow recovery down but never lose acknowledged
// events. Recovery is complete or refused: a log that no longer reaches
// back to the store it replays onto — its head was pruned behind a
// snapshot that did not load — is an error naming the missing LSNs,
// never a store with short windows.
func Recover(dir string, log *wal.Log, cfg Config) (*Store, RecoverStats, error) {
	store, stats, err := LoadLatest(dir, cfg)
	if err != nil {
		return nil, stats, err
	}
	from := store.AppliedLSN() + 1
	_, err = log.ReadFrom(from, math.MaxInt, func(lsn uint64, payload []byte) error {
		user, item, err := DecodeEvent(payload)
		if err != nil {
			// A CRC-intact record that does not decode is a version or
			// programming error, not media damage: halt loudly.
			return fmt.Errorf("lsn %d: %w", lsn, err)
		}
		store.Apply(lsn, user, item)
		stats.Replayed++
		return nil
	})
	if errors.Is(err, wal.ErrPruned) {
		err = fmt.Errorf("events %d..%d are in neither a loadable snapshot (%d skipped) nor the log: %w",
			from, log.OldestLSN()-1, stats.SnapshotsSkipped, err)
	}
	if err != nil {
		return nil, stats, fmt.Errorf("sessions: recover: %w", err)
	}
	return store, stats, nil
}
