package seq

import (
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

func (r *windowRef) count(v Item) int {
	n := 0
	for _, x := range r.tail() {
		if x == v {
			n++
		}
	}
	return n
}

func (r *windowRef) maxCount() int {
	m := 0
	counts := map[Item]int{}
	for _, x := range r.tail() {
		counts[x]++
		if counts[x] > m {
			m = counts[x]
		}
	}
	return m
}

// TestWindowAgainstReference drives random pushes through both the ring
// window and the naive reference, checking every invariant at every step.
func TestWindowAgainstReference(t *testing.T) {
	rng := rngutil.New(77)
	for trial := 0; trial < 30; trial++ {
		cap := 1 + rng.Intn(12)
		w := NewWindow(cap)
		ref := &windowRef{cap: cap}
		universe := 1 + rng.Intn(8)
		for step := 0; step < 300; step++ {
			v := Item(rng.Intn(universe))
			w.Push(v)
			ref.push(v)
			if w.Len() != len(ref.tail()) {
				t.Fatalf("len mismatch: %d vs %d", w.Len(), len(ref.tail()))
			}
			if w.MaxCount() != ref.maxCount() {
				t.Fatalf("maxCount mismatch at step %d: %d vs %d", step, w.MaxCount(), ref.maxCount())
			}
			for u := 0; u < universe; u++ {
				item := Item(u)
				if w.Count(item) != ref.count(item) {
					t.Fatalf("count(%d) mismatch: %d vs %d", u, w.Count(item), ref.count(item))
				}
				gap, ok := w.Gap(item)
				wantGap, wantOK := refGap(ref, item)
				if ok != wantOK || gap != wantGap {
					t.Fatalf("gap(%d) mismatch: (%d,%v) vs (%d,%v)", u, gap, ok, wantGap, wantOK)
				}
			}
			// Ring order must equal the reference tail.
			tail := ref.tail()
			for i, want := range tail {
				if got := w.At(i); got != want {
					t.Fatalf("At(%d) = %d, want %d", i, got, want)
				}
			}
		}
	}
}

// refGap computes the gap from the full event log (clearer than the
// windowRef method above).
func refGap(r *windowRef, v Item) (int, bool) {
	tail := r.tail()
	offset := len(r.events) - len(tail)
	for i := len(tail) - 1; i >= 0; i-- {
		if tail[i] == v {
			return len(r.events) - (offset + i), true
		}
	}
	return 0, false
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
