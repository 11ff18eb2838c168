package sessions

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"tsppr/internal/rngutil"
	"tsppr/internal/seq"
)

// refStore is the store the slab replaced: a map of heap rings, each
// with the LSN of its last event. TestSlabStoreMatchesReference holds
// the slab store to it.
type refStore struct {
	cfg        Config
	users      map[int]*refSession
	appliedLSN uint64
}

type refSession struct {
	ring seq.Ring
	lsn  uint64
}

func (r *refStore) apply(lsn uint64, user int, item seq.Item) bool {
	if lsn <= r.appliedLSN {
		return false
	}
	r.appliedLSN = lsn
	if user < 0 || user >= r.cfg.NumUsers || item < 0 || int(item) >= r.cfg.NumItems {
		return false
	}
	e := r.users[user]
	if e == nil {
		e = &refSession{ring: seq.NewRing(r.cfg.WindowCap)}
		r.users[user] = e
	}
	e.ring.Push(item)
	e.lsn = lsn
	return true
}

func (r *refStore) dump() []UserWindow {
	out := make([]UserWindow, 0, len(r.users))
	for u, e := range r.users {
		items, pushed := e.ring.Snapshot()
		out = append(out, UserWindow{User: u, Pushed: pushed, Items: items})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].User < out[j].User })
	return out
}

// sameAsRef fails unless s answers every query like ref, for every user
// id in [-1, users].
func sameAsRef(t *testing.T, s *Store, ref *refStore, users int) {
	t.Helper()
	if s.Len() != len(ref.users) || s.AppliedLSN() != ref.appliedLSN {
		t.Fatalf("len/applied = %d/%d, want %d/%d", s.Len(), s.AppliedLSN(), len(ref.users), ref.appliedLSN)
	}
	for u := -1; u <= users; u++ {
		e := ref.users[u]
		lsn, ok := s.UserLSN(u)
		ring, clsn, cok := s.RingCloneLSN(u)
		if e == nil {
			if ok || cok || s.WindowLen(u) != 0 {
				t.Fatalf("user %d has no session, store answers lsn %d/%v, clone %v, len %d", u, lsn, ok, cok, s.WindowLen(u))
			}
			continue
		}
		if !ok || !cok || lsn != e.lsn || clsn != e.lsn || s.WindowLen(u) != e.ring.Len() {
			t.Fatalf("user %d: lsn %d/%v clone lsn %d/%v len %d, want lsn %d len %d",
				u, lsn, ok, clsn, cok, s.WindowLen(u), e.lsn, e.ring.Len())
		}
		got, gotT := ring.Snapshot()
		want, wantT := e.ring.Snapshot()
		if gotT != wantT || !reflect.DeepEqual(got, want) || ring.Cap() != e.ring.Cap() {
			t.Fatalf("user %d: cloned ring %v (T=%d), want %v (T=%d)", u, got, gotT, want, wantT)
		}
		// The clone is the caller's: pushing on it leaves the store be.
		ring.Push(-7)
		if again, _, _ := s.RingCloneLSN(u); again.T() != wantT {
			t.Fatalf("user %d: a push on the clone reached the store", u)
		}
	}
	if got, want := s.Capture().Dump(), ref.dump(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Dump = %v\nwant %v", got, want)
	}
}

// TestSlabStoreMatchesReference runs the slab-backed store and the map
// of heap rings it replaced through the same random sequences — new
// users past several chunks, wrapping windows, over-replayed LSNs,
// events outside the id bounds, captures taken and then outlived, and
// snapshot write/load round trips — and compares every query after
// every step.
func TestSlabStoreMatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		rng := rngutil.New(seed)
		windowCap := []int{1, 3, 8}[seed%3]
		users := 2*minSlotsPerChunk + 40 // three chunks
		cfg := Config{WindowCap: windowCap, NumUsers: users, NumItems: 30}
		s := NewStore(cfg)
		ref := &refStore{cfg: cfg, users: map[int]*refSession{}}
		lsn := uint64(0)
		for step := 0; step < 400; step++ {
			switch k := rng.Intn(20); {
			case k < 14: // an event, mostly new, sometimes over-replayed
				if rng.Intn(6) == 0 && lsn > 0 {
					l := lsn - uint64(rng.Intn(int(min(lsn, 4))))
					u, v := rng.Intn(users), seq.Item(rng.Intn(30))
					if s.Apply(l, u, v) || ref.apply(l, u, v) {
						t.Fatalf("seed %d: over-replayed lsn %d applied", seed, l)
					}
					continue
				}
				u, v := rng.Intn(users+users/8)-users/16, seq.Item(rng.Intn(34)-2) // some out of bounds
				for n := 1 + rng.Intn(3*windowCap); n > 0; n-- {                   // wrap now and then
					lsn++
					if got, want := s.Apply(lsn, u, v), ref.apply(lsn, u, v); got != want {
						t.Fatalf("seed %d: Apply(%d, %d, %d) = %v, want %v", seed, lsn, u, v, got, want)
					}
					v = seq.Item(rng.Intn(30))
				}
			case k < 16: // a capture outlives later applies
				c := s.Capture()
				want := ref.dump()
				for i := 0; i < 5; i++ {
					lsn++
					u, v := rng.Intn(users), seq.Item(rng.Intn(30))
					s.Apply(lsn, u, v)
					ref.apply(lsn, u, v)
				}
				if got := c.Dump(); !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d: a capture changed with the store", seed)
				}
			case k < 18: // snapshot round trip; the loaded store carries on
				dir := t.TempDir()
				if _, _, err := s.Save(dir); err != nil {
					t.Fatal(err)
				}
				loaded, _, err := LoadLatest(dir, cfg)
				if err != nil {
					t.Fatal(err)
				}
				s.Close()
				s = loaded
				// A snapshot keeps no per-user LSNs: each session comes
				// back at the snapshot's.
				for _, e := range ref.users {
					e.lsn = ref.appliedLSN
				}
			default:
				sameAsRef(t, s, ref, users)
			}
		}
		sameAsRef(t, s, ref, users)
		if s.Len() > s.slab.perChunk && len(s.slab.chunks) < 2 {
			t.Fatalf("seed %d: %d sessions in %d slab bytes: one chunk", seed, s.Len(), s.SlabBytes())
		}
		s.Close()
	}
}

// TestClosedStoreReleasesItsSlab: Close returns the store's bytes to the
// process count at once; afterwards every method that reads a window
// panics — the slab is gone, so nothing reads unmapped memory — while
// the counters still answer, and a second Close is a no-op.
func TestClosedStoreReleasesItsSlab(t *testing.T) {
	before := MappedBytes()
	s := NewStore(Config{WindowCap: 4})
	if s.SlabBytes() != 0 || MappedBytes() != before {
		t.Fatalf("an empty store maps %d B", s.SlabBytes())
	}
	for u := 0; u < minSlotsPerChunk+1; u++ {
		s.Apply(uint64(u+1), u, seq.Item(u))
	}
	if got := MappedBytes() - before; got != s.SlabBytes() || got < int64(4*(minSlotsPerChunk+1)*(hdrItems+4)) {
		t.Fatalf("mapped %d B, store slab %d B", got, s.SlabBytes())
	}
	s.Close()
	if MappedBytes() != before || s.SlabBytes() != 0 {
		t.Fatalf("closed store still maps %d B (store says %d)", MappedBytes()-before, s.SlabBytes())
	}
	if s.Len() != minSlotsPerChunk+1 || s.AppliedLSN() != minSlotsPerChunk+1 || s.Dropped() != 0 {
		t.Fatalf("closed store's counters: len %d applied %d", s.Len(), s.AppliedLSN())
	}
	calls := []struct {
		name string
		call func()
	}{
		{"Apply", func() { s.Apply(1000, 3, 1) }},
		{"Apply new", func() { s.Apply(1001, 10_000, 1) }},
		{"UserLSN", func() { s.UserLSN(3) }},
		{"RingCloneLSN", func() { s.RingCloneLSN(3) }},
		{"WindowLen", func() { s.WindowLen(3) }},
		{"Capture", func() { s.Capture() }},
	}
	for _, c := range calls {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on a closed store did not panic", c.name)
				}
			}()
			c.call()
		}()
	}
	s.Close()
	if MappedBytes() != before {
		t.Fatalf("second Close moved the count by %d B", MappedBytes()-before)
	}
}

// TestRefusedLoadReleasesItsSlab: a snapshot the loader refuses part way
// through leaves nothing mapped behind it.
func TestRefusedLoadReleasesItsSlab(t *testing.T) {
	before := MappedBytes()
	dir := t.TempDir()
	var lines []string
	for u := 0; u < 2*minSlotsPerChunk; u++ {
		lines = append(lines, fmt.Sprintf(`{"u":%d,"t":2,"w":[5,6]}`, u))
	}
	lines = append(lines, `{"u":0,"t":2,"w":[5,6]}`) // user 0 twice
	writeSnapshot(t, dir, 4, 9, lines...)
	s, stats, err := LoadLatest(dir, Config{WindowCap: 4})
	if err != nil || stats.SnapshotsSkipped != 1 || s.Len() != 0 {
		t.Fatalf("load over a refused generation: %+v, %v", stats, err)
	}
	if got := MappedBytes() - before; got != 0 {
		t.Fatalf("refused load left %d B mapped", got)
	}
}
