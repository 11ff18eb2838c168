// Package obs is the stdlib-only observability layer shared by every
// binary in the repo: a Registry of named counters, gauges, and
// fixed-bucket histograms with a Prometheus-text-format exporter
// (expfmt.go). It exists so the serving hot path (internal/engine), the
// write-ahead log (internal/wal), the evaluation replay (internal/eval),
// and the HTTP endpoints all report latency and throughput through one
// mechanism instead of the ad-hoc per-struct atomics that preceded it.
//
// # Hot-path discipline
//
// The record path (Counter.Add, Gauge.Set, Histogram.Observe) is
// lock-free — a handful of atomic operations, zero heap allocations —
// so instrumenting a zero-allocation code path keeps it zero-allocation
// (pinned by BenchmarkRecommendInstrumented in internal/engine). The
// read path is atomic loads; Histogram.Snapshot fills a caller-provided
// slice so steady-state reads allocate nothing.
//
// # Nil safety
//
// Every method is a no-op on a nil receiver: a nil *Registry hands out
// nil *Counter/*Gauge/*Histogram handles whose methods record nothing.
// Library packages therefore take the registry as an optional
// dependency — uninstrumented callers pass nil and pay only a nil check.
//
// # Naming
//
// A metric name is a Prometheus family name optionally followed by one
// label block, e.g.
//
//	rrc_http_requests_total{endpoint="/recommend"}
//
// All series of one family share a type (and, for histograms, bucket
// bounds). Registration is idempotent: asking for an existing name
// returns the existing handle, so a hot-swapped component re-registering
// its metrics keeps accumulating into the same series.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// metricKind discriminates the family types the registry understands.
type metricKind int

const (
	counterKind metricKind = iota
	gaugeKind
	histogramKind
)

func (k metricKind) String() string {
	switch k {
	case counterKind:
		return "counter"
	case gaugeKind:
		return "gauge"
	case histogramKind:
		return "histogram"
	default:
		return fmt.Sprintf("metricKind(%d)", int(k))
	}
}

// Registry holds metric families and exports them in Prometheus text
// format. The zero value is NOT ready to use; call NewRegistry. A nil
// *Registry is a valid "record nothing" sink.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	// pendingHelp holds Help text registered before the family's first
	// series appears.
	pendingHelp map[string]string
}

// family groups every series sharing one metric name prefix and type.
type family struct {
	name   string
	kind   metricKind
	help   string
	bounds []float64          // histogram families only; shared by all series
	series map[string]*series // keyed by canonical label block ("" = unlabeled)
}

// series is one (family, label-set) time series.
type series struct {
	labels string // canonical label block without braces, "" if none
	c      *Counter
	g      *Gauge
	gf     func() float64
	h      *Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

// Help sets the # HELP text for a family. Safe before or after the
// family's first series is registered; no-op on a nil registry.
func (r *Registry) Help(familyName, text string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[familyName]; ok {
		f.help = text
		return
	}
	if r.pendingHelp == nil {
		r.pendingHelp = map[string]string{}
	}
	r.pendingHelp[familyName] = text
}

// Counter returns the counter for name, registering it on first use.
// name may carry a label block: `requests_total{endpoint="/x"}`. Returns
// nil (a valid no-op handle) on a nil registry. Panics if the family is
// already registered as a different type — a programming error.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	return r.seriesFor(name, counterKind, nil).c
}

// Gauge returns the gauge for name, registering it on first use. Returns
// nil on a nil registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	s := r.seriesFor(name, gaugeKind, nil)
	r.mu.Lock()
	defer r.mu.Unlock()
	if s.gf != nil {
		panic(fmt.Sprintf("obs: %s already registered as a gauge func", name))
	}
	if s.g == nil {
		s.g = &Gauge{}
	}
	return s.g
}

// GaugeFunc registers a gauge whose value is computed by fn at export
// time — for values another subsystem already tracks (session counts,
// applied LSNs) that would otherwise need double bookkeeping. fn must be
// safe to call from any goroutine. No-op on a nil registry; re-registering
// replaces the function.
func (r *Registry) GaugeFunc(name string, fn func() float64) {
	if r == nil {
		return
	}
	s := r.seriesFor(name, gaugeKind, nil)
	r.mu.Lock()
	defer r.mu.Unlock()
	if s.g != nil {
		panic(fmt.Sprintf("obs: %s already registered as a plain gauge", name))
	}
	s.gf = fn
}

// Histogram returns the histogram for name, registering it with the
// given ascending bucket upper bounds on first use. Every series of one
// family shares the family's bounds (the first registration wins).
// Returns nil on a nil registry.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	s := r.seriesFor(name, histogramKind, bounds)
	return s.h
}

// seriesFor finds or creates the series for name, enforcing family/type
// coherence. Counter and histogram handles are minted under the lock so
// concurrent registrations of the same series (e.g. parallel shard
// recovery opening WALs over one registry) hand out one shared handle.
func (r *Registry) seriesFor(name string, kind metricKind, bounds []float64) *series {
	fam, labels := splitName(name)
	if err := checkFamilyName(fam); err != nil {
		panic("obs: " + err.Error())
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[fam]
	if !ok {
		f = &family{name: fam, kind: kind, series: map[string]*series{}}
		if kind == histogramKind {
			f.bounds = checkBounds(fam, bounds)
		}
		if help, ok := r.pendingHelp[fam]; ok {
			f.help = help
			delete(r.pendingHelp, fam)
		}
		r.families[fam] = f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("obs: %s already registered as a %s, asked for %s", fam, f.kind, kind))
	}
	s, ok := f.series[labels]
	if !ok {
		s = &series{labels: labels}
		if kind == histogramKind {
			s.h = newHistogram(f.bounds)
		}
		f.series[labels] = s
	}
	if kind == counterKind && s.c == nil {
		s.c = &Counter{}
	}
	return s
}

// SumCounters returns the sum of every series of a counter family —
// the aggregate a test asserts on without parsing an exposition.
// Returns 0 for a nil registry, an unknown family, or a non-counter
// family.
func (r *Registry) SumCounters(familyName string) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[familyName]
	if !ok || f.kind != counterKind {
		return 0
	}
	var total int64
	for _, s := range f.series {
		total += s.c.Value()
	}
	return total
}

// splitName separates `family{label="v"}` into the family name and the
// canonical label block (no braces, "" when unlabeled).
func splitName(name string) (fam, labels string) {
	i := strings.IndexByte(name, '{')
	if i < 0 {
		return name, ""
	}
	fam = name[:i]
	rest := name[i:]
	if len(rest) < 2 || rest[0] != '{' || rest[len(rest)-1] != '}' {
		panic(fmt.Sprintf("obs: malformed label block in %q", name))
	}
	return fam, rest[1 : len(rest)-1]
}

// checkFamilyName enforces the Prometheus metric-name charset
// [a-zA-Z_:][a-zA-Z0-9_:]*.
func checkFamilyName(name string) error {
	if name == "" {
		return fmt.Errorf("empty metric name")
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return fmt.Errorf("invalid metric name %q", name)
		}
	}
	return nil
}

// checkBounds validates histogram bounds: non-empty, finite, strictly
// ascending. Returns a private copy.
func checkBounds(fam string, bounds []float64) []float64 {
	if len(bounds) == 0 {
		panic(fmt.Sprintf("obs: histogram %s with no buckets", fam))
	}
	out := append([]float64(nil), bounds...)
	for i, b := range out {
		if math.IsNaN(b) || math.IsInf(b, 0) {
			panic(fmt.Sprintf("obs: histogram %s bucket %d is not finite", fam, i))
		}
		if i > 0 && b <= out[i-1] {
			panic(fmt.Sprintf("obs: histogram %s buckets not strictly ascending at %d", fam, i))
		}
	}
	return out
}

// Counter is a monotonically increasing atomic counter. All methods are
// safe for concurrent use and are no-ops on a nil receiver.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n (negative deltas are a caller bug but are not checked on
// the hot path).
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 on a nil receiver).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic float64 that can go up and down. All methods are
// safe for concurrent use and are no-ops on a nil receiver.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add adds delta with a CAS loop.
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Value returns the current value (0 on a nil receiver).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket histogram with Prometheus `le` (cumulative
// upper bound) semantics: an observation lands in the first bucket whose
// bound is >= the value; values above the last bound land in the
// implicit +Inf overflow bucket, values below the first bound in the
// first ("underflow") bucket. The record path is lock-free: one linear
// scan over the bounds (they are few and cache-resident), one atomic
// bucket increment, one CAS-loop float add for the sum.
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1; last = +Inf overflow
	sum    atomic.Uint64   // float64 bits
}

func newHistogram(bounds []float64) *Histogram {
	return &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}
}

// Observe records one value. Safe for concurrent use; no-op on a nil
// receiver; zero heap allocations.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	for {
		old := h.sum.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, nw) {
			return
		}
	}
}

// ObserveDuration records d in seconds — the Prometheus base unit for
// latency histograms.
func (h *Histogram) ObserveDuration(d time.Duration) {
	h.Observe(d.Seconds())
}

// Count returns the total number of observations (0 on nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	var total uint64
	for i := range h.counts {
		total += h.counts[i].Load()
	}
	return total
}

// Sum returns the sum of all observed values (0 on nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// Snapshot appends the per-bucket (non-cumulative) counts to dst —
// len(bounds)+1 entries, the last being the +Inf overflow bucket — and
// returns them with the current sum and total count. Passing a dst with
// sufficient capacity makes the read allocation-free; concurrent
// observers may land between bucket reads, so the snapshot is
// per-bucket-atomic, not globally atomic (the Prometheus exposition has
// the same property). On a nil receiver it returns (dst, 0, 0).
func (h *Histogram) Snapshot(dst []uint64) (buckets []uint64, sum float64, count uint64) {
	if h == nil {
		return dst, 0, 0
	}
	for i := range h.counts {
		c := h.counts[i].Load()
		dst = append(dst, c)
		count += c
	}
	return dst, h.Sum(), count
}

// Bounds returns the histogram's bucket upper bounds (nil on nil). The
// returned slice must not be mutated.
func (h *Histogram) Bounds() []float64 {
	if h == nil {
		return nil
	}
	return h.bounds
}

// ExpBuckets returns n exponentially growing bucket bounds starting at
// start and multiplying by factor: start, start·factor, … Panics on
// non-positive start, factor <= 1, or n < 1.
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic(fmt.Sprintf("obs: ExpBuckets(%v, %v, %d) out of range", start, factor, n))
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// LatencyBuckets is the default latency histogram: 50µs to ~1.6s in
// ×2 steps, wide enough for an in-memory scorer on the low end and a
// stalled fsync on the high end.
var LatencyBuckets = ExpBuckets(50e-6, 2, 16)

// SizeBuckets is the default size histogram (candidate-set sizes, batch
// sizes): 1 to 4096 in ×2 steps.
var SizeBuckets = ExpBuckets(1, 2, 13)

// familiesSorted returns the registry's families sorted by name, for
// deterministic export (caller holds r.mu).
func (r *Registry) familiesSorted() []*family {
	out := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// seriesSorted returns a family's series sorted by label block (caller
// holds r.mu).
func (f *family) seriesSorted() []*series {
	out := make([]*series, 0, len(f.series))
	for _, s := range f.series {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].labels < out[j].labels })
	return out
}
