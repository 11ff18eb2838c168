package seq

import (
	"fmt"
	"slices"
	"testing"
	"testing/quick"

	"tsppr/internal/rngutil"
)

func TestSplit(t *testing.T) {
	s := Sequence{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	train, test := s.Split(0.7)
	if len(train) != 7 || len(test) != 3 {
		t.Fatalf("split lengths %d/%d", len(train), len(test))
	}
	if train[6] != 7 || test[0] != 8 {
		t.Fatal("split boundary wrong")
	}
	train, test = s.Split(0)
	if len(train) != 0 || len(test) != 10 {
		t.Fatal("zero split wrong")
	}
	train, test = s.Split(1)
	if len(train) != 10 || len(test) != 0 {
		t.Fatal("full split wrong")
	}
}

func TestSplitPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Sequence{1}.Split(1.5)
}

func TestDistinct(t *testing.T) {
	if got := (Sequence{1, 2, 1, 3, 2}).Distinct(); got != 3 {
		t.Errorf("Distinct = %d", got)
	}
	if got := (Sequence{}).Distinct(); got != 0 {
		t.Errorf("empty Distinct = %d", got)
	}
}

func TestWindowBasics(t *testing.T) {
	w := NewWindow(3)
	if w.Cap() != 3 || w.Len() != 0 || w.Full() || w.T() != 0 {
		t.Fatal("fresh window state wrong")
	}
	w.Push(1)
	w.Push(2)
	w.Push(1)
	if !w.Full() || w.T() != 3 {
		t.Fatal("window should be full after 3 pushes")
	}
	if w.Count(1) != 2 || w.Count(2) != 1 || w.Count(9) != 0 {
		t.Fatal("counts wrong")
	}
	if !w.Contains(1) || w.Contains(9) {
		t.Fatal("Contains wrong")
	}
	gap, ok := w.Gap(1)
	if !ok || gap != 1 {
		t.Fatalf("Gap(1) = %d,%v", gap, ok)
	}
	gap, ok = w.Gap(2)
	if !ok || gap != 2 {
		t.Fatalf("Gap(2) = %d,%v", gap, ok)
	}
	if _, ok := w.Gap(9); ok {
		t.Fatal("Gap of absent item should be !ok")
	}
}

func TestWindowEviction(t *testing.T) {
	w := NewWindow(2)
	w.Push(1)
	w.Push(2)
	w.Push(3) // evicts 1
	if w.Contains(1) {
		t.Fatal("evicted item still present")
	}
	if w.Count(2) != 1 || w.Count(3) != 1 {
		t.Fatal("counts after eviction wrong")
	}
	if w.At(0) != 2 || w.At(1) != 3 {
		t.Fatalf("ring order wrong: %d %d", w.At(0), w.At(1))
	}
}

func TestWindowAtPanics(t *testing.T) {
	w := NewWindow(2)
	w.Push(1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	w.At(1)
}

func TestWindowDistinctItemsOrder(t *testing.T) {
	w := NewWindow(5)
	for _, v := range []Item{3, 1, 3, 2, 1} {
		w.Push(v)
	}
	got := w.DistinctItems(nil)
	want := []Item{3, 1, 2}
	if len(got) != len(want) {
		t.Fatalf("distinct = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("distinct order = %v, want %v", got, want)
		}
	}
}

func TestWindowCandidates(t *testing.T) {
	w := NewWindow(5)
	for _, v := range []Item{1, 2, 3, 2, 4} {
		w.Push(v)
	}
	// T=5. Gaps: 1→5, 2→2, 3→3, 4→1.
	got := w.Candidates(2, nil)
	want := []Item{1, 3}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("Candidates(2) = %v, want %v", got, want)
	}
	if got := w.Candidates(0, nil); len(got) != 4 {
		t.Fatalf("Candidates(0) = %v", got)
	}
	if got := w.Candidates(4, nil); len(got) != 1 || got[0] != 1 {
		t.Fatalf("Candidates(4) = %v", got)
	}
}

func TestWindowMaxCount(t *testing.T) {
	w := NewWindow(4)
	if w.MaxCount() != 0 {
		t.Fatal("empty MaxCount != 0")
	}
	w.Push(1)
	w.Push(1)
	w.Push(2)
	if w.MaxCount() != 2 {
		t.Fatalf("MaxCount = %d, want 2", w.MaxCount())
	}
	w.Push(1) // counts: 1→3, 2→1
	if w.MaxCount() != 3 {
		t.Fatalf("MaxCount = %d, want 3", w.MaxCount())
	}
	w.Push(2) // evicts a 1: 1→2, 2→2
	if w.MaxCount() != 2 {
		t.Fatalf("MaxCount after eviction = %d, want 2", w.MaxCount())
	}
}

// windowRef is a brutally simple reference: a slice of the last cap items.
type windowRef struct {
	cap    int
	events []Item
}

func (r *windowRef) push(v Item) { r.events = append(r.events, v) }

func (r *windowRef) tail() []Item {
	if len(r.events) <= r.cap {
		return r.events
	}
	return r.events[len(r.events)-r.cap:]
}

// TestWindowAgainstReference drives random pushes over small capacities
// and universes through a window, a ring and the naive reference,
// checking every query at every step.
func TestWindowAgainstReference(t *testing.T) {
	rng := rngutil.New(77)
	for trial := 0; trial < 30; trial++ {
		capacity := 1 + rng.Intn(12)
		items := make([]Item, 1+rng.Intn(8))
		for i := range items {
			items[i] = Item(i)
		}
		pushes := make([]Item, 300)
		for i := range pushes {
			pushes[i] = items[rng.Intn(len(items))]
		}
		if err := diffPushes(capacity, pushes, append(items, -1)); err != nil {
			t.Fatal(err)
		}
	}
}

// refState is the reference recounted from scratch: what every query of
// a window over the same pushes must answer.
type refState struct {
	t        int
	tail     []Item
	count    map[Item]int
	last     map[Item]int // absolute position of the most recent occurrence
	first    []Item       // the distinct items, first occurrence first
	maxCount int
}

func (r *windowRef) recount() refState {
	tail := r.tail()
	base := len(r.events) - len(tail)
	st := refState{t: len(r.events), tail: tail, count: map[Item]int{}, last: map[Item]int{}}
	for i, v := range tail {
		if st.count[v] == 0 {
			st.first = append(st.first, v)
		}
		st.count[v]++
		st.last[v] = base + i
		st.maxCount = max(st.maxCount, st.count[v])
	}
	return st
}

// diffRef reports the first query, over the given items (pushed or not)
// and a few Ω, on which w disagrees with the reference, or nil.
func diffRef(w *Window, st refState, items []Item) error {
	t := st.t
	if w.T() != t || w.Len() != len(st.tail) || w.MaxCount() != st.maxCount || w.NumDistinct() != len(st.count) {
		return fmt.Errorf("T/len/max/distinct = %d/%d/%d/%d, want %d/%d/%d/%d",
			w.T(), w.Len(), w.MaxCount(), w.NumDistinct(), t, len(st.tail), st.maxCount, len(st.count))
	}
	for i, v := range st.tail {
		if got := w.At(i); got != v {
			return fmt.Errorf("At(%d) = %d, want %d", i, got, v)
		}
	}
	for _, v := range items {
		last, in := st.last[v]
		wantGap := 0
		if in {
			wantGap = t - last
		}
		if gap, ok := w.Gap(v); w.Count(v) != st.count[v] || w.Contains(v) != in || ok != in || gap != wantGap {
			return fmt.Errorf("item %d: count %d contains %v gap (%d,%v), want %d %v (%d,%v)",
				v, w.Count(v), w.Contains(v), gap, ok, st.count[v], in, wantGap, in)
		}
	}
	// Every gap is ≥ 1, so CandidatesUnordered(0) is the whole set, and a
	// larger Ω keeps its order.
	all := w.CandidatesUnordered(0, nil)
	got, want := slices.Clone(all), slices.Clone(st.first)
	slices.Sort(got)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		return fmt.Errorf("CandidatesUnordered(0) = %v, want the set %v", all, st.first)
	}
	for _, omega := range []int{1, 10} {
		var want, wantUnordered []Item
		for _, v := range st.first {
			if t-st.last[v] > omega {
				want = append(want, v)
			}
		}
		if got := w.Candidates(omega, nil); !slices.Equal(got, want) {
			return fmt.Errorf("Candidates(%d) = %v, want %v", omega, got, want)
		}
		for _, v := range all {
			if t-st.last[v] > omega {
				wantUnordered = append(wantUnordered, v)
			}
		}
		if got := w.CandidatesUnordered(omega, nil); !slices.Equal(got, wantUnordered) {
			return fmt.Errorf("CandidatesUnordered(%d) = %v, want %v", omega, got, wantUnordered)
		}
	}
	if got := w.DistinctItems(nil); !slices.Equal(got, st.first) {
		return fmt.Errorf("DistinctItems = %v, want %v", got, st.first)
	}
	return nil
}

// diffPushes pushes each item through a window and a ring, and after every
// push compares the window, and a window built from a copy of the ring,
// with the reference.
func diffPushes(capacity int, pushes, items []Item) error {
	w, r := NewWindow(capacity), NewRing(capacity)
	ref := &windowRef{cap: capacity}
	for step, v := range pushes {
		w.Push(v)
		r.Push(v)
		ref.push(v)
		st := ref.recount()
		if err := diffRef(w, st, items); err != nil {
			return fmt.Errorf("|W|=%d step %d, pushed: %w", capacity, step, err)
		}
		c := r.Clone()
		if err := diffRef(c.IntoWindow(), st, items); err != nil {
			return fmt.Errorf("|W|=%d step %d, from a ring: %w", capacity, step, err)
		}
	}
	return nil
}

// probeItems returns per ids for each of the slot table's last two and
// first home slots at the given capacity: ids that collide, and whose
// probe runs wrap past the table's end into the run of slot 0.
func probeItems(capacity, per int) []Item {
	w := NewWindow(capacity)
	size := len(w.tab)
	need := map[int]int{size - 1: per, 0: per, size - 2: per} // two slots when size is 2
	var out []Item
	for v := Item(0); len(out) < len(need)*per; v++ {
		if h := w.home(v); need[h] > 0 {
			need[h]--
			out = append(out, v)
		}
	}
	return out
}

// TestWindowTableAgainstReference checks the slot table behind every
// query against a recount, for windows built by Push and by
// Ring.IntoWindow, at every step: over ids that collide and wrap past the
// table's end, alone and mixed with twice |W| dense ids so the table
// fills as far as |W| distinct items take it.
func TestWindowTableAgainstReference(t *testing.T) {
	rng := rngutil.New(47)
	for _, capacity := range []int{1, 2, 7, 100, 1000} {
		colliders := probeItems(capacity, 4)
		for _, dense := range []int{0, 2 * capacity} {
			items := slices.Clone(colliders)
			for v := 0; v < dense; v++ {
				items = append(items, Item(v))
			}
			pushes := make([]Item, 2*capacity+20) // fill, then evict every first-lap event
			for i := range pushes {
				if dense == 0 || rng.Intn(2) == 0 {
					pushes[i] = colliders[rng.Intn(len(colliders))]
				} else {
					pushes[i] = Item(rng.Intn(dense))
				}
			}
			if err := diffPushes(capacity, pushes, append(items, -1, Item(dense)+1)); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// FuzzWindowAgainstReference is the same check on fuzzed histories: the
// first byte picks |W| in [1, 16], each later byte one push from the ids
// of probeItems followed by eight dense ids. The seeds push colliding
// ids only, then mix in dense ones.
func FuzzWindowAgainstReference(f *testing.F) {
	f.Add([]byte{3, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 0, 4, 8})
	f.Add([]byte{7, 0, 4, 8, 1, 5, 9, 0, 4, 8, 2, 6, 10, 3, 7, 11, 0, 0, 4})
	f.Add([]byte{0, 0, 1, 4, 5, 8, 9, 0, 1})
	f.Add([]byte{15, 12, 0, 13, 4, 14, 8, 15, 1, 16, 5, 17, 9, 18, 2, 19, 6, 12, 10, 13, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		capacity := 1 + int(data[0]%16)
		items := probeItems(capacity, 4)
		for v := 0; v < 8; v++ {
			items = append(items, Item(v))
		}
		pushes := make([]Item, len(data)-1)
		for i, b := range data[1:] {
			pushes[i] = items[int(b)%len(items)]
		}
		if err := diffPushes(capacity, pushes, items); err != nil {
			t.Fatal(err)
		}
	})
}

func TestScanEmitsOnlyFullWindows(t *testing.T) {
	s := Sequence{1, 2, 3, 1, 2}
	var events []Event
	Scan(s, 3, func(ev Event, w *Window) bool {
		if !w.Full() {
			t.Fatal("callback with non-full window")
		}
		events = append(events, ev)
		return true
	})
	// Positions 3 and 4 have full 3-windows behind them.
	if len(events) != 2 {
		t.Fatalf("got %d events, want 2", len(events))
	}
	if events[0].T != 3 || events[0].Next != 1 || !events[0].Repeat || events[0].Gap != 3 {
		t.Fatalf("event0 = %+v", events[0])
	}
	if events[1].T != 4 || events[1].Next != 2 || !events[1].Repeat || events[1].Gap != 3 {
		t.Fatalf("event1 = %+v", events[1])
	}
}

func TestScanNovelEvent(t *testing.T) {
	s := Sequence{1, 2, 3, 9}
	var got []Event
	Scan(s, 3, func(ev Event, _ *Window) bool {
		got = append(got, ev)
		return true
	})
	if len(got) != 1 || got[0].Repeat || got[0].Next != 9 || got[0].Gap != 0 {
		t.Fatalf("events = %+v", got)
	}
}

func TestScanEarlyStop(t *testing.T) {
	s := Sequence{1, 2, 1, 2, 1, 2}
	n := 0
	Scan(s, 2, func(Event, *Window) bool {
		n++
		return n < 2
	})
	if n != 2 {
		t.Fatalf("early stop failed: %d callbacks", n)
	}
}

func TestScanFromWarmStart(t *testing.T) {
	history := Sequence{1, 2, 3}
	test := Sequence{1, 9}
	var events []Event
	ScanFrom(history, test, 3, func(ev Event, w *Window) bool {
		events = append(events, ev)
		return true
	})
	if len(events) != 2 {
		t.Fatalf("got %d events", len(events))
	}
	// First test event is at global position 3, a repeat of item 1 (gap 3).
	if events[0].T != 3 || !events[0].Repeat || events[0].Gap != 3 {
		t.Fatalf("event0 = %+v", events[0])
	}
	if events[1].Repeat {
		t.Fatalf("event1 should be novel: %+v", events[1])
	}
}

func TestEventEligible(t *testing.T) {
	ev := Event{Repeat: true, Gap: 11}
	if !ev.Eligible(10) {
		t.Error("gap 11 > Ω 10 should be eligible")
	}
	if ev.Eligible(11) {
		t.Error("gap 11 is not > Ω 11")
	}
	if (Event{Repeat: false, Gap: 50}).Eligible(10) {
		t.Error("novel events are never eligible")
	}
}

func TestRepeatRatio(t *testing.T) {
	// With cap 2: events at t=2 (3: novel), t=3 (1: not in {2,3} → novel).
	if got := RepeatRatio(Sequence{1, 2, 3, 1}, 2); got != 0 {
		t.Errorf("RepeatRatio = %v, want 0", got)
	}
	// With cap 3: events at t=3 (1 ∈ {1,2,3} repeat).
	if got := RepeatRatio(Sequence{1, 2, 3, 1}, 3); got != 1 {
		t.Errorf("RepeatRatio = %v, want 1", got)
	}
	if got := RepeatRatio(Sequence{1}, 3); got != 0 {
		t.Errorf("short sequence RepeatRatio = %v", got)
	}
}

func TestScanGapConsistency(t *testing.T) {
	// Property: for repeat events, ev.Gap equals the window's reported gap.
	f := func(raw []uint8) bool {
		if len(raw) < 5 {
			return true
		}
		s := make(Sequence, len(raw))
		for i, r := range raw {
			s[i] = Item(r % 6)
		}
		okAll := true
		Scan(s, 4, func(ev Event, w *Window) bool {
			gap, ok := w.Gap(ev.Next)
			if ev.Repeat != ok || (ok && gap != ev.Gap) {
				okAll = false
				return false
			}
			return true
		})
		return okAll
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestNewWindowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewWindow(0)
}

func BenchmarkWindowPush(b *testing.B) {
	w := NewWindow(100)
	rng := rngutil.New(3)
	items := make([]Item, 4096)
	for i := range items {
		items[i] = Item(rng.Intn(200))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Push(items[i%len(items)])
	}
}

func BenchmarkWindowCandidates(b *testing.B) {
	w := NewWindow(100)
	rng := rngutil.New(3)
	for i := 0; i < 100; i++ {
		w.Push(Item(rng.Intn(40)))
	}
	var dst []Item
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = w.Candidates(10, dst[:0])
	}
}
