// Package sessions holds rrc-server's online per-user consumption
// state: a bounded map of user → time window W_ut, fed by WAL-appended
// consumption events and recoverable after a crash from the latest
// snapshot plus a WAL tail replay.
//
// A resident session is exactly what a snapshot line holds — the ring of
// the last |W| item ids and its push count (seq.Ring) — because that is
// all a window is; the indexed seq.Window a request scores against is
// materialised from a copy of the ring per read, outside the lock.
//
// The store is deliberately dumb about durability: callers append to
// the WAL first and Apply second, so the on-disk log is always ahead of
// (or equal to) memory and recovery can only over-replay, never invent.
// Apply is idempotent over LSNs, which makes the over-replay harmless.
package sessions

import (
	"encoding/binary"
	"fmt"
	"sort"
	"sync"

	"tsppr/internal/seq"
	"tsppr/internal/wal"
)

// Config bounds a Store.
type Config struct {
	WindowCap int // |W| per user; required > 0
	MaxUsers  int // LRU session bound; 0 → DefaultMaxUsers
	NumUsers  int // user-id validity bound; 0 → unbounded
	NumItems  int // item-id validity bound; 0 → unbounded
}

// DefaultMaxUsers is the LRU session bound when Config.MaxUsers is 0.
const DefaultMaxUsers = 1 << 16

// Store is the in-memory session state. All methods are safe for
// concurrent use.
type Store struct {
	mu         sync.Mutex
	cfg        Config
	users      map[int]*entry
	lru        entry // sentinel of the circular recency list: next = most, prev = least recently used
	appliedLSN uint64
	evictions  int64
	dropped    int64 // replayed events outside the configured id bounds
}

type entry struct {
	user       int
	ring       seq.Ring
	lsn        uint64 // LSN of the last event applied to this window
	prev, next *entry // recency list: toward more / less recently used
}

// NewStore returns an empty store. It panics on a non-positive window
// capacity, mirroring seq.NewWindow.
func NewStore(cfg Config) *Store {
	if cfg.WindowCap <= 0 {
		panic(fmt.Sprintf("sessions: window capacity %d <= 0", cfg.WindowCap))
	}
	if cfg.MaxUsers <= 0 {
		cfg.MaxUsers = DefaultMaxUsers
	}
	s := &Store{cfg: cfg, users: make(map[int]*entry)}
	s.lru.prev, s.lru.next = &s.lru, &s.lru
	return s
}

// pushFrontLocked links e in as the most recently used session.
func (s *Store) pushFrontLocked(e *entry) {
	e.prev, e.next = &s.lru, s.lru.next
	e.prev.next, e.next.prev = e, e
}

// moveToFrontLocked marks the linked entry e most recently used.
func (s *Store) moveToFrontLocked(e *entry) {
	e.prev.next, e.next.prev = e.next, e.prev
	s.pushFrontLocked(e)
}

// evictOverLocked drops least recently used sessions until the store is
// within MaxUsers.
func (s *Store) evictOverLocked() {
	for len(s.users) > s.cfg.MaxUsers {
		victim := s.lru.prev
		victim.prev.next, s.lru.prev = &s.lru, victim.prev
		delete(s.users, victim.user)
		s.evictions++
	}
}

// Apply advances user's window with item as the event at the given LSN.
// Events at or below the store's applied LSN are duplicates from a WAL
// over-replay and are ignored; events outside the configured user/item
// bounds are dropped and counted, never applied. It reports whether the
// event advanced state.
func (s *Store) Apply(lsn uint64, user int, item seq.Item) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if lsn <= s.appliedLSN {
		return false
	}
	s.appliedLSN = lsn
	if user < 0 || (s.cfg.NumUsers > 0 && user >= s.cfg.NumUsers) ||
		item < 0 || (s.cfg.NumItems > 0 && int(item) >= s.cfg.NumItems) {
		s.dropped++
		return false
	}
	e := s.touchLocked(user)
	e.ring.Push(item)
	e.lsn = lsn
	return true
}

// touchLocked returns user's entry, creating it (and evicting the least
// recently used session when over MaxUsers) as needed, and marks it
// most recently used.
func (s *Store) touchLocked(user int) *entry {
	e, ok := s.users[user]
	if !ok {
		e = &entry{user: user, ring: seq.NewRing(s.cfg.WindowCap)}
		s.pushFrontLocked(e)
		s.users[user] = e
		s.evictOverLocked()
		return e
	}
	s.moveToFrontLocked(e)
	return e
}

// UserLSN returns the LSN of the last event applied to user's window.
// It is the response cache's version probe: an entry cached under this
// LSN is current. Deliberately does not touch LRU order — a probe that
// hits the cache never materializes a read of the window, so it should
// not count as one.
func (s *Store) UserLSN(user int) (uint64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.users[user]
	if !ok {
		return 0, false
	}
	return e.lsn, true
}

// RingCloneLSN returns an independent copy of user's resident ring and
// the LSN of the last event applied to it, captured under one lock hold
// (a read also counts as LRU use). Callers that cache the scored result
// keyed by LSN need the pair to be atomic: copying and then asking for
// the LSN separately could tag a pre-consume window with a post-consume
// LSN, making a stale cache entry look current forever. The lock covers
// one ≤ |W|-item copy and nothing else.
func (s *Store) RingCloneLSN(user int) (seq.Ring, uint64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.users[user]
	if !ok {
		return seq.Ring{}, 0, false
	}
	s.moveToFrontLocked(e)
	return e.ring.Clone(), e.lsn, true
}

// WindowCloneLSN is RingCloneLSN with the copy materialised — after the
// lock is released — into the indexed window a request scores against.
// The window is private to the caller.
func (s *Store) WindowCloneLSN(user int) (*seq.Window, uint64, bool) {
	ring, lsn, ok := s.RingCloneLSN(user)
	if !ok {
		return nil, 0, false
	}
	return ring.Window(), lsn, true
}

// WindowLen returns the current length of user's window (0 when the
// user has no session). Unlike WindowCloneLSN it does not touch LRU order.
func (s *Store) WindowLen(user int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.users[user]; ok {
		return e.ring.Len()
	}
	return 0
}

// Len returns the number of live sessions.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.users)
}

// AppliedLSN returns the LSN of the last event observed (applied or
// dropped).
func (s *Store) AppliedLSN() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.appliedLSN
}

// Evictions returns how many sessions the LRU bound has evicted.
func (s *Store) Evictions() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.evictions
}

// Dropped returns how many events were outside the id bounds.
func (s *Store) Dropped() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dropped
}

// UserWindow is one session in serializable form (see seq.Snapshot).
type UserWindow struct {
	User   int        `json:"u"`
	Pushed int        `json:"t"`
	Items  []seq.Item `json:"w"`
}

// Dump returns every session in ascending user order — the canonical
// fingerprint of the store's state, used by tests to prove recovery
// equivalence.
func (s *Store) Dump() []UserWindow {
	s.mu.Lock()
	out := s.lruDumpLocked()
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].User < out[j].User })
	return out
}

// lruDumpLocked serializes sessions least-recently-used first, so that
// re-applying them in file order reconstructs both the windows and the
// LRU recency order exactly. Every window's items are a slice of one
// shared slab: two allocations for the whole store, not one per user.
func (s *Store) lruDumpLocked() []UserWindow {
	total := 0
	for e := s.lru.prev; e != &s.lru; e = e.prev {
		total += e.ring.Len()
	}
	slab := make([]seq.Item, 0, total)
	out := make([]UserWindow, 0, len(s.users))
	for e := s.lru.prev; e != &s.lru; e = e.prev {
		start := len(slab)
		slab = e.ring.AppendItems(slab)
		out = append(out, UserWindow{User: e.user, Pushed: e.ring.T(), Items: slab[start:len(slab):len(slab)]})
	}
	return out
}

// eventSize is the wire size of one encoded consumption event.
const eventSize = 8

// EncodeEvent serializes one consumption event as the WAL payload:
// little-endian uint32 user, uint32 item.
func EncodeEvent(user int, item seq.Item) []byte {
	b := make([]byte, eventSize)
	binary.LittleEndian.PutUint32(b[0:4], uint32(user))
	binary.LittleEndian.PutUint32(b[4:8], uint32(item))
	return b
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
// a replay of every WAL record past the snapshot's LSN. A corrupt or
// incompatible snapshot falls back to the next older one (and
// ultimately to a full-log replay), so a crash mid-snapshot can slow
// recovery down but never lose acknowledged events.
func Recover(dir string, log *wal.Log, cfg Config) (*Store, RecoverStats, error) {
	store, stats, err := LoadLatest(dir, cfg)
	if err != nil {
		return nil, stats, err
	}
	err = log.Replay(store.AppliedLSN()+1, func(lsn uint64, payload []byte) error {
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
	if err != nil {
		return nil, stats, fmt.Errorf("sessions: recover: %w", err)
	}
	return store, stats, nil
}
