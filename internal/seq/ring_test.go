package seq

import (
	"reflect"
	"sort"
	"testing"

	"tsppr/internal/rngutil"
)

// sameWindow fails unless got answers every query exactly like want over
// the given item universe.
func sameWindow(t *testing.T, got, want *Window, universe int) {
	t.Helper()
	if got.Len() != want.Len() || got.Cap() != want.Cap() || got.T() != want.T() {
		t.Fatalf("len/cap/T = %d/%d/%d, want %d/%d/%d",
			got.Len(), got.Cap(), got.T(), want.Len(), want.Cap(), want.T())
	}
	for i := 0; i < want.Len(); i++ {
		if got.At(i) != want.At(i) {
			t.Fatalf("At(%d) = %d, want %d", i, got.At(i), want.At(i))
		}
	}
	if got.MaxCount() != want.MaxCount() || got.NumDistinct() != want.NumDistinct() {
		t.Fatalf("maxCount/distinct = %d/%d, want %d/%d",
			got.MaxCount(), got.NumDistinct(), want.MaxCount(), want.NumDistinct())
	}
	for u := -1; u <= universe; u++ { // -1 and universe are never pushed
		v := Item(u)
		gg, gok := got.Gap(v)
		wg, wok := want.Gap(v)
		if got.Count(v) != want.Count(v) || got.Contains(v) != want.Contains(v) || gg != wg || gok != wok {
			t.Fatalf("item %d: count %d contains %v gap (%d,%v), want %d %v (%d,%v)",
				v, got.Count(v), got.Contains(v), gg, gok, want.Count(v), want.Contains(v), wg, wok)
		}
	}
	for _, omega := range []int{0, 10, want.Cap()} {
		if g, w := got.Candidates(omega, nil), want.Candidates(omega, nil); !reflect.DeepEqual(g, w) {
			t.Fatalf("Candidates(%d) = %v, want %v", omega, g, w)
		}
		g, w := got.CandidatesUnordered(omega, nil), want.CandidatesUnordered(omega, nil)
		sort.Slice(g, func(i, j int) bool { return g[i] < g[j] })
		sort.Slice(w, func(i, j int) bool { return w[i] < w[j] })
		if !reflect.DeepEqual(g, w) {
			t.Fatalf("CandidatesUnordered(%d) = %v, want %v", omega, g, w)
		}
	}
	if g, w := got.DistinctItems(nil), want.DistinctItems(nil); !reflect.DeepEqual(g, w) {
		t.Fatalf("DistinctItems = %v, want %v", g, w)
	}
}

// TestRingWindowMatchesPushBuiltWindow is the differential property the
// session store rests on: a ring that saw a push history materialises to
// a window indistinguishable — by any query — from one that maintained
// its indexes through the same pushes. Checked at every step, so before
// the first wrap, at it, and many laps after; universe 1 is the
// duplicate-saturated window.
func TestRingWindowMatchesPushBuiltWindow(t *testing.T) {
	rng := rngutil.New(20)
	for _, capacity := range []int{1, 2, 7, 100} {
		for _, universe := range []int{1, 3, 40, 500} {
			r := NewRing(capacity)
			w := NewWindow(capacity)
			sameWindow(t, r.Window(), w, universe)
			for step := 0; step < 3*capacity+5; step++ {
				v := Item(rng.Intn(universe))
				r.Push(v)
				w.Push(v)
				m := r.Window()
				sameWindow(t, m, w, universe)
				// The materialised window keeps behaving: one more push on
				// both sides (copies, so the history is undisturbed).
				next := Item(rng.Intn(universe))
				m.Push(next)
				w2 := r.Window()
				w2.Push(next)
				sameWindow(t, m, w2, universe)
			}
			// And the snapshot form carries the same ring.
			items, pushed := r.Snapshot()
			back, err := RestoreRing(capacity, pushed, items)
			if err != nil {
				t.Fatal(err)
			}
			sameWindow(t, back.Window(), w, universe)
		}
	}
}

// TestRingWindowIsIndependent: a materialised window and a cloned ring
// share no storage with the ring they came from, in either direction.
func TestRingWindowIsIndependent(t *testing.T) {
	r := NewRing(3)
	r.Push(1)
	r.Push(2)
	w := r.Window()
	c := r.Clone()
	w.Push(3)
	w.Push(4)
	c.Push(9)
	if r.Len() != 2 || r.T() != 2 || r.At(0) != 1 || r.At(1) != 2 {
		t.Fatal("materialised window or clone mutated the ring")
	}
	if !w.Contains(4) || w.Contains(1) || w.MaxCount() != 1 || w.T() != 4 {
		t.Fatal("materialised window state wrong after its own pushes")
	}
	r.Push(5)
	r.Push(6)
	if w.Contains(5) || w.Contains(6) || c.At(2) != 9 {
		t.Fatal("ring pushes leaked into the window or the clone")
	}
}

func TestRingSnapshotAcrossWrap(t *testing.T) {
	r := NewRing(4)
	if items, pushed := r.Snapshot(); len(items) != 0 || pushed != 0 {
		t.Fatalf("empty snapshot = (%v, %d)", items, pushed)
	}
	for i := 1; i <= 10; i++ {
		r.Push(Item(i))
		lo := i - 4
		if lo < 0 {
			lo = 0
		}
		var want []Item
		for v := lo + 1; v <= i; v++ {
			want = append(want, Item(v))
		}
		items, pushed := r.Snapshot()
		if pushed != i || !reflect.DeepEqual(items, want) {
			t.Fatalf("after %d pushes snapshot = (%v, %d), want %v", i, items, pushed, want)
		}
		if got := r.AppendItems([]Item{-7}); !reflect.DeepEqual(got, append([]Item{-7}, want...)) {
			t.Fatalf("AppendItems = %v", got)
		}
	}
}

func TestRestoreRingRejectsImpossibleDumps(t *testing.T) {
	cases := []struct {
		name     string
		capacity int
		pushed   int
		items    []Item
	}{
		{"zero capacity", 0, 0, nil},
		{"negative capacity", -1, 0, nil},
		{"items over capacity", 2, 3, []Item{1, 2, 3}},
		{"pushed below item count", 3, 1, []Item{1, 2}},
	}
	for _, tc := range cases {
		if _, err := RestoreRing(tc.capacity, tc.pushed, tc.items); err == nil {
			t.Errorf("%s: no error", tc.name)
		}
	}
	// The restored ring owns its storage.
	items := []Item{1, 2}
	r, err := RestoreRing(3, 5, items)
	if err != nil {
		t.Fatal(err)
	}
	items[0] = 99
	if r.At(0) != 1 || r.T() != 5 || r.Len() != 2 || r.Cap() != 3 {
		t.Fatal("restored ring aliases its input or lost its shape")
	}
}

func TestNewRingPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewRing(0)
}

var sinkWindow *Window // keeps the benchmarked calls from being optimised away

// benchRing is the bench fixture's session shape: a full |W| = 100 ring
// over a personal pool of 40 items, wrapped.
func benchRing() Ring {
	r := NewRing(100)
	rng := rngutil.New(3)
	for i := 0; i < 250; i++ {
		r.Push(Item(rng.Intn(40)))
	}
	return r
}

// TestWindowAllocations pins what a read pays for its window at the bench
// shape: IntoWindow allocates the window, its slot table and its count
// histogram, nothing per event; Push allocates nothing.
func TestWindowAllocations(t *testing.T) {
	r := benchRing()
	rings := make([]Ring, 101) // AllocsPerRun makes one warm-up call
	for i := range rings {
		rings[i] = r.Clone()
	}
	i := 0
	if n := testing.AllocsPerRun(100, func() {
		sinkWindow = rings[i].IntoWindow()
		i++
	}); n > 3 {
		t.Errorf("Ring.IntoWindow allocates %v times at |W|=100, want ≤ 3", n)
	}
	w := r.Window()
	if n := testing.AllocsPerRun(1000, func() {
		w.Push(Item(i % 60))
		i++
	}); n != 0 {
		t.Errorf("Window.Push allocates %v times, want 0", n)
	}
}

func BenchmarkRingPush(b *testing.B) {
	r := benchRing()
	for i := 0; i < b.N; i++ {
		r.Push(Item(i & 31))
	}
}

// BenchmarkRingWindow is what a session read pays to get a queryable
// window; BenchmarkRestoreWindowByPush is the same window built the way
// RestoreWindow used to (NewWindow + Push × |W|).
func BenchmarkRingWindow(b *testing.B) {
	r := benchRing()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkWindow = r.Window()
	}
}

func BenchmarkRestoreWindowByPush(b *testing.B) {
	r := benchRing()
	items, _ := r.Snapshot()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w := NewWindow(100)
		for _, v := range items {
			w.Push(v)
		}
		sinkWindow = w
	}
}

// TestRingOverPushesInPlace: a ring over caller-owned storage reads and
// pushes in that storage, wraps from any head, and materialises like a
// ring that saw the same pushes; impossible shapes panic.
func TestRingOverPushesInPlace(t *testing.T) {
	rng := rngutil.New(48)
	for _, capacity := range []int{1, 3, 8} {
		ref := NewRing(capacity)
		for k := 0; k < 2*capacity+1; k++ {
			ref.Push(Item(rng.Intn(20)))
		}
		// The same contents laid out from every head a slab may hold.
		for head := 0; head < capacity; head++ {
			items, pushed := ref.Snapshot()
			buf := make([]Item, capacity)
			for i, v := range items {
				buf[(head+i)%capacity] = v
			}
			r := RingOver(buf, head, len(items), pushed)
			want := ref.Clone()
			for k := 0; k < capacity+2; k++ {
				v := Item(rng.Intn(20))
				r.Push(v)
				want.Push(v)
				sameWindow(t, r.Window(), want.Window(), 20)
			}
			// Every push landed in buf: a second ring over it sees them.
			again := RingOver(buf, r.head, r.Len(), r.T())
			got, _ := again.Snapshot()
			if w, _ := want.Snapshot(); !reflect.DeepEqual(got, w) {
				t.Fatalf("cap %d head %d: buf holds %v, want %v", capacity, head, got, w)
			}
		}
	}
	for _, c := range []struct{ capacity, head, size, pushed int }{
		{0, 0, 0, 0}, {3, 3, 0, 0}, {3, -1, 0, 0}, {3, 0, 4, 4}, {3, 0, 2, 1}, {3, 0, -1, 0},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("RingOver(cap %d, head %d, size %d, pushed %d) did not panic", c.capacity, c.head, c.size, c.pushed)
				}
			}()
			RingOver(make([]Item, c.capacity), c.head, c.size, c.pushed)
		}()
	}
}
