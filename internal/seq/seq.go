// Package seq defines the consumption-sequence data model of the paper:
// per-user time-ordered item sequences, the sliding time window W_ut
// (Definition 1), and the repeat-consumption event scanner that both
// training-set construction and evaluation are built on.
//
// Time is the discrete consumption step, exactly as in the paper: step T is
// the 0-based position of an event in the user's sequence. The window
// ending "at time t" contains the last |W| events before the incoming
// consumption at position T; an incoming item is a repeat iff it occurs in
// that window (Definition 2), and it is an *eligible* repeat iff its last
// occurrence is more than Ω steps back (paper §5.1: recently consumed items
// need no recommendation).
package seq

import "fmt"

// Item identifies a consumable item (location, song, ...). Item IDs are
// dense non-negative integers assigned by the dataset layer.
type Item int32

// Sequence is one user's time-ascending consumption history. Repetition is
// allowed; order is meaningful.
type Sequence []Item

// Split partitions s into the leading train fraction and the remaining
// test suffix, per the paper's 70/30 per-user protocol.
func (s Sequence) Split(trainFrac float64) (train, test Sequence) {
	if trainFrac < 0 || trainFrac > 1 {
		panic(fmt.Sprintf("seq: Split fraction %v out of [0,1]", trainFrac))
	}
	n := int(float64(len(s)) * trainFrac)
	return s[:n], s[n:]
}

// Distinct returns the number of distinct items in s.
func (s Sequence) Distinct() int {
	seen := make(map[Item]struct{}, len(s))
	for _, v := range s {
		seen[v] = struct{}{}
	}
	return len(seen)
}

// Ring is the bare sliding window: a fixed-capacity ring buffer over the
// most recent consumptions plus the count of events ever pushed. It is
// everything a window *is* — counts, gaps and the max count are functions
// of these item ids and positions — and so it is the form a window takes
// at rest (session store, snapshots); Window adds the per-item indexes a
// scorer queries. The zero Ring is not usable: build one with NewRing or
// RestoreRing.
//
// Ring is not safe for concurrent use.
type Ring struct {
	buf    []Item // len(buf) is the capacity |W|
	head   int    // ring index of the oldest element
	size   int
	pushed int // total events pushed == position of the next incoming event
}

// NewRing returns an empty ring with the given capacity. It panics for
// non-positive capacities.
func NewRing(capacity int) Ring {
	if capacity <= 0 {
		panic(fmt.Sprintf("seq: NewRing capacity %d <= 0", capacity))
	}
	return Ring{buf: make([]Item, capacity)}
}

// Cap returns the capacity |W|.
func (r *Ring) Cap() int { return len(r.buf) }

// Len returns the number of events currently held.
func (r *Ring) Len() int { return r.size }

// T returns the position of the next incoming consumption, i.e. the total
// number of events pushed so far.
func (r *Ring) T() int { return r.pushed }

// Push appends the consumption of v, evicting the oldest event when full.
func (r *Ring) Push(v Item) { r.push(v) }

// push is Push reporting the evicted event, which Window needs to keep
// its indexes in step.
func (r *Ring) push(v Item) (old Item, evicted bool) {
	if r.size == len(r.buf) {
		old, evicted = r.buf[r.head], true
		r.buf[r.head] = v
		if r.head++; r.head == len(r.buf) {
			r.head = 0
		}
	} else {
		r.buf[r.at(r.size)] = v
		r.size++
	}
	r.pushed++
	return old, evicted
}

// at maps a window position (0 = oldest) to its index in buf.
func (r *Ring) at(i int) int {
	if i += r.head; i >= len(r.buf) {
		i -= len(r.buf)
	}
	return i
}

// At returns the i-th event, oldest first. It panics when i is out of
// range.
func (r *Ring) At(i int) Item {
	if i < 0 || i >= r.size {
		panic(fmt.Sprintf("seq: At(%d) out of range [0,%d)", i, r.size))
	}
	return r.buf[r.at(i)]
}

// Snapshot returns the contents oldest-first together with the total
// number of events ever pushed. It is the canonical serializable form:
// RestoreRing(r.Cap(), pushed, items) rebuilds a ring observationally
// identical to r (same contents, positions, and T), which is what the
// session-store snapshots persist.
func (r *Ring) Snapshot() (items []Item, pushed int) {
	return r.AppendItems(make([]Item, 0, r.size)), r.pushed
}

// AppendItems appends the contents oldest-first to dst and returns the
// extended slice — Snapshot for callers that bring their own storage.
func (r *Ring) AppendItems(dst []Item) []Item {
	tail := r.buf[r.head:]
	if len(tail) > r.size {
		tail = tail[:r.size]
	}
	dst = append(dst, tail...)
	return append(dst, r.buf[:r.size-len(tail)]...)
}

// Clone returns an independent copy of the ring.
func (r *Ring) Clone() Ring {
	c := *r
	c.buf = append([]Item(nil), r.buf...)
	return c
}

// RestoreRing rebuilds a ring from a Snapshot dump. It errors (rather
// than panicking) on impossible dumps, because its inputs come from disk,
// not from code.
func RestoreRing(capacity, pushed int, items []Item) (Ring, error) {
	if capacity <= 0 {
		return Ring{}, fmt.Errorf("seq: restore: capacity %d <= 0", capacity)
	}
	if len(items) > capacity {
		return Ring{}, fmt.Errorf("seq: restore: %d items over capacity %d", len(items), capacity)
	}
	if pushed < len(items) {
		return Ring{}, fmt.Errorf("seq: restore: pushed %d < %d items", pushed, len(items))
	}
	r := Ring{buf: make([]Item, capacity), size: len(items), pushed: pushed}
	copy(r.buf, items)
	return r, nil
}

// Window materialises the queryable window over a copy of r: one O(|W|)
// walk fills the per-item indexes, with every event at its original
// absolute position so Gap and T match a window that saw the same pushes.
// The result shares nothing with r.
func (r *Ring) Window() *Window {
	w := &Window{
		ring:      r.Clone(),
		count:     make(map[Item]int, r.size),
		lastSeen:  make(map[Item]int, r.size),
		countHist: make(map[int]int),
	}
	base := r.pushed - r.size
	for i := 0; i < r.size; i++ {
		v := r.buf[r.at(i)]
		w.count[v]++
		w.lastSeen[v] = base + i
	}
	for _, c := range w.count {
		w.countHist[c]++
		if c > w.maxCount {
			w.maxCount = c
		}
	}
	return w
}

// Window is the sliding time window W_ut: a Ring over the most recent
// consumptions, with per-item occurrence counts and last-seen positions
// maintained incrementally.
//
// Window is not safe for concurrent use.
type Window struct {
	ring     Ring
	count    map[Item]int
	lastSeen map[Item]int // most recent position of the item, only while in window

	// countHist[c] is the number of distinct items occurring exactly c
	// times; maxCount is the largest occupied c. Together they make
	// MaxCount O(1), which the dynamic-familiarity normalization needs.
	countHist map[int]int
	maxCount  int
}

// NewWindow returns an empty window with the given capacity. It panics for
// non-positive capacities.
func NewWindow(capacity int) *Window {
	if capacity <= 0 {
		panic(fmt.Sprintf("seq: NewWindow capacity %d <= 0", capacity))
	}
	return &Window{
		ring:      NewRing(capacity),
		count:     make(map[Item]int),
		lastSeen:  make(map[Item]int),
		countHist: make(map[int]int),
	}
}

// Cap returns the window capacity |W|.
func (w *Window) Cap() int { return w.ring.Cap() }

// Len returns the number of events currently in the window.
func (w *Window) Len() int { return w.ring.size }

// Full reports whether the window holds Cap() events.
func (w *Window) Full() bool { return w.ring.size == w.ring.Cap() }

// T returns the position of the next incoming consumption, i.e. the total
// number of events pushed so far.
func (w *Window) T() int { return w.ring.pushed }

// Push appends the consumption of v, evicting the oldest event when full.
func (w *Window) Push(v Item) {
	if old, evicted := w.ring.push(v); evicted {
		c := w.count[old] - 1
		w.bumpHist(c+1, c)
		if c == 0 {
			delete(w.count, old)
			delete(w.lastSeen, old)
		} else {
			w.count[old] = c
		}
	}
	c := w.count[v] + 1
	w.count[v] = c
	w.bumpHist(c-1, c)
	w.lastSeen[v] = w.ring.pushed - 1
}

// bumpHist moves one item from count bucket `from` to bucket `to`
// (either may be 0, meaning absent) and maintains maxCount.
func (w *Window) bumpHist(from, to int) {
	if from > 0 {
		if n := w.countHist[from] - 1; n == 0 {
			delete(w.countHist, from)
		} else {
			w.countHist[from] = n
		}
	}
	if to > 0 {
		w.countHist[to]++
		if to > w.maxCount {
			w.maxCount = to
		}
	}
	for w.maxCount > 0 && w.countHist[w.maxCount] == 0 {
		w.maxCount--
	}
}

// MaxCount returns the highest occurrence count of any item in the window
// (0 when empty).
func (w *Window) MaxCount() int { return w.maxCount }

// Contains reports whether v occurs in the window.
func (w *Window) Contains(v Item) bool { return w.count[v] > 0 }

// Count returns the number of occurrences of v in the window (the
// numerator of the dynamic-familiarity feature, paper Eq. 21).
func (w *Window) Count(v Item) int { return w.count[v] }

// Gap returns T − l_ut(v), the number of steps since v's most recent
// occurrence in the window, and whether v is present. The smallest
// possible gap is 1 (v was the immediately preceding consumption).
func (w *Window) Gap(v Item) (int, bool) {
	last, ok := w.lastSeen[v]
	if !ok {
		return 0, false
	}
	return w.ring.pushed - last, true
}

// At returns the i-th event in the window, oldest first. It panics when i
// is out of range.
func (w *Window) At(i int) Item { return w.ring.At(i) }

// DistinctItems appends the distinct items of the window to dst in
// first-occurrence (oldest-first) order and returns the extended slice.
// The deterministic order matters: samplers and the Random baseline index
// into this slice, and run-to-run reproducibility requires a stable order.
func (w *Window) DistinctItems(dst []Item) []Item {
	seen := make(map[Item]struct{}, len(w.count))
	for i := 0; i < w.ring.size; i++ {
		v := w.ring.buf[w.ring.at(i)]
		if _, ok := seen[v]; ok {
			continue
		}
		seen[v] = struct{}{}
		dst = append(dst, v)
	}
	return dst
}

// Candidates appends the RRC candidate set to dst: the distinct items of
// the window whose gap exceeds omega (i.e. not consumed in the last omega
// steps), oldest-first. This is the recommendable set of Definition 2
// restricted by the minimum gap Ω.
func (w *Window) Candidates(omega int, dst []Item) []Item {
	seen := make(map[Item]struct{}, len(w.count))
	for i := 0; i < w.ring.size; i++ {
		v := w.ring.buf[w.ring.at(i)]
		if _, ok := seen[v]; ok {
			continue
		}
		seen[v] = struct{}{}
		if w.ring.pushed-w.lastSeen[v] > omega {
			dst = append(dst, v)
		}
	}
	return dst
}

// CandidatesUnordered appends the same candidate set as Candidates to dst
// in UNSPECIFIED order and returns the extended slice. Unlike Candidates
// it allocates nothing (it walks the per-item last-seen index instead of
// deduplicating the ring buffer), which makes it the enumeration of
// choice for rankers whose selection is order-independent — any ranker
// with a strict total order on (score, item), such as the topk selector.
// Order-sensitive consumers (the Random baseline, samplers) must keep
// using Candidates.
func (w *Window) CandidatesUnordered(omega int, dst []Item) []Item {
	for v, last := range w.lastSeen {
		if w.ring.pushed-last > omega {
			dst = append(dst, v)
		}
	}
	return dst
}

// NumDistinct returns the number of distinct items in the window, an
// upper bound on the candidate-set size for any Ω.
func (w *Window) NumDistinct() int { return len(w.count) }

// Snapshot returns the window's contents oldest-first together with the
// total number of events ever pushed (see Ring.Snapshot):
// RestoreWindow(w.Cap(), pushed, items) rebuilds a window observationally
// identical to w (same contents, counts, gaps, and T).
func (w *Window) Snapshot() (items []Item, pushed int) { return w.ring.Snapshot() }

// RestoreWindow rebuilds a window from a Snapshot dump: RestoreRing, then
// materialised.
func RestoreWindow(capacity, pushed int, items []Item) (*Window, error) {
	r, err := RestoreRing(capacity, pushed, items)
	if err != nil {
		return nil, err
	}
	return r.Window(), nil
}

// Event describes one scanner step: the incoming consumption at position T
// observed against the window of the preceding |W| events.
type Event struct {
	T      int  // position of the incoming consumption in the sequence
	Next   Item // the incoming item x_T
	Repeat bool // x_T occurs in the window
	Gap    int  // steps since x_T's last occurrence; 0 when not a repeat
}

// Eligible reports whether the event is an evaluable/trainable repeat:
// present in the window but not within the last omega steps.
func (e Event) Eligible(omega int) bool { return e.Repeat && e.Gap > omega }

// Scan walks s with a window of the given capacity, invoking fn for every
// position T at which the window is full — i.e. for every event that has a
// complete |W|-step history behind it. fn observes the window *before* the
// incoming item is pushed, which is exactly the recommendation-time view.
// If fn returns false the scan stops early.
func Scan(s Sequence, capacity int, fn func(ev Event, w *Window) bool) {
	w := NewWindow(capacity)
	for t, v := range s {
		if w.Full() {
			ev := Event{T: t, Next: v}
			if gap, ok := w.Gap(v); ok {
				ev.Repeat = true
				ev.Gap = gap
			}
			if !fn(ev, w) {
				return
			}
		}
		w.Push(v)
	}
}

// ScanFrom behaves like Scan but first pre-fills the window with the
// history slice (without emitting events), then scans s. This is how test
// sequences are evaluated: the window warm-starts from the tail of the
// user's training prefix, so positions are global over history+s.
func ScanFrom(history, s Sequence, capacity int, fn func(ev Event, w *Window) bool) {
	w := NewWindow(capacity)
	for _, v := range history {
		w.Push(v)
	}
	for _, v := range s {
		if w.Full() {
			ev := Event{T: w.T(), Next: v}
			if gap, ok := w.Gap(v); ok {
				ev.Repeat = true
				ev.Gap = gap
			}
			if !fn(ev, w) {
				return
			}
		}
		w.Push(v)
	}
}

// RepeatRatio returns the fraction of full-window events in s that are
// repeats (at any gap). It returns 0 when no full-window event exists.
func RepeatRatio(s Sequence, capacity int) float64 {
	events, repeats := 0, 0
	Scan(s, capacity, func(ev Event, _ *Window) bool {
		events++
		if ev.Repeat {
			repeats++
		}
		return true
	})
	if events == 0 {
		return 0
	}
	return float64(repeats) / float64(events)
}
