// Package eval implements the paper's evaluation protocol (§5.1, §5.3):
// each user's test suffix is replayed with the time window warm-started
// from the training prefix; at every *eligible* repeat event (the incoming
// item is in the window but was last consumed more than Ω steps ago) every
// method produces a Top-N list from the window candidates, and a hit is a
// list containing the actually reconsumed item.
//
// Two precision aggregates are reported (Eq. 22-24): MaAP pools hits over
// all events (so users with long sequences weigh more), MiAP averages the
// per-user precision P(u) (so every user weighs the same).
package eval

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"tsppr/internal/obs"
	"tsppr/internal/rec"
	"tsppr/internal/seq"
)

// Options configures an evaluation run.
type Options struct {
	WindowCap int   // |W| (default 100)
	Omega     int   // Ω (default 10)
	TopNs     []int // list sizes to report (default 1, 5, 10)
	// Parallelism bounds the number of concurrent user replays
	// (default GOMAXPROCS). Results are deterministic regardless.
	Parallelism int
	// MeasureLatency times every Recommend call (Fig. 13). Off by default
	// because the clock reads perturb micro-benchmarks.
	MeasureLatency bool
	// Seed derives the per-user streams handed to stochastic recommenders.
	Seed uint64
	// KeepPerUser retains per-user outcomes on the Result, enabling the
	// paired bootstrap comparison in this package.
	KeepPerUser bool

	// Metrics, when non-nil, receives a per-user replay latency
	// histogram rrc_eval_user_seconds{method="<factory name>"}. Nil
	// records nothing.
	Metrics *obs.Registry
}

func (o Options) withDefaults() Options {
	if o.WindowCap == 0 {
		o.WindowCap = 100
	}
	if len(o.TopNs) == 0 {
		o.TopNs = []int{1, 5, 10}
	}
	if o.Parallelism == 0 {
		o.Parallelism = runtime.GOMAXPROCS(0)
	}
	return o
}

func (o Options) validate() error {
	switch {
	case o.WindowCap <= 0:
		return fmt.Errorf("eval: WindowCap %d <= 0", o.WindowCap)
	case o.Omega < 0 || o.Omega >= o.WindowCap:
		return fmt.Errorf("eval: Omega %d out of [0,%d)", o.Omega, o.WindowCap)
	case o.Parallelism < 0:
		return fmt.Errorf("eval: Parallelism %d < 0", o.Parallelism)
	}
	for _, n := range o.TopNs {
		if n <= 0 {
			return fmt.Errorf("eval: TopN %d <= 0", n)
		}
	}
	return nil
}

// Result reports one method's accuracy (and optionally latency) on one
// dataset.
type Result struct {
	Method string
	TopNs  []int
	MaAP   []float64 // parallel to TopNs
	MiAP   []float64

	// MRR is the mean reciprocal rank of the reconsumed item in the
	// longest generated list (0 when absent); NDCG is the mean normalized
	// DCG at max(TopNs). Both go beyond the paper's MaAP/MiAP.
	MRR  float64
	NDCG float64

	Events         int // total eligible repeat events
	UsersEvaluated int // users contributing at least one event
	UsersDone      int // users actually replayed (== all users unless Interrupted)

	// Interrupted is set when the context was cancelled before every user
	// was replayed: the aggregates cover only the UsersDone completed
	// users, which are the first UsersDone in user order.
	Interrupted bool

	// Latency of a single online recommendation (populated only when
	// Options.MeasureLatency is set).
	MeanLatency time.Duration
	Recs        int // number of timed Recommend calls

	// PerUser holds each user's outcome (populated only when
	// Options.KeepPerUser is set); index = user id.
	PerUser []UserOutcome
}

// UserOutcome is one user's replay outcome: eligible events and hit counts
// parallel to Result.TopNs.
type UserOutcome struct {
	Events int
	Hits   []int
}

// At returns (MaAP@n, MiAP@n) in comma-ok form: ok is false (with zero
// values) when n was not among the evaluated TopNs.
func (r Result) At(n int) (maap, miap float64, ok bool) {
	for i, tn := range r.TopNs {
		if tn == n {
			return r.MaAP[i], r.MiAP[i], true
		}
	}
	return 0, 0, false
}

// userStats accumulates one user's replay outcome.
type userStats struct {
	events  int
	hits    []int // parallel to TopNs
	rrSum   float64
	dcgSum  float64
	latency time.Duration
	recs    int
}

// Evaluate replays every user's test suffix against the factory's
// recommenders and aggregates precision.
func Evaluate(train, test []seq.Sequence, f rec.Factory, opt Options) (Result, error) {
	return EvaluateContext(context.Background(), train, test, f, opt)
}

// EvaluateContext is Evaluate with cancellation. Users start in user
// order; once ctx is cancelled no further user starts, the ones in flight
// finish, and the partial Result comes back with Interrupted set and a
// nil error.
func EvaluateContext(ctx context.Context, train, test []seq.Sequence, f rec.Factory, opt Options) (Result, error) {
	opt = opt.withDefaults()
	if err := opt.validate(); err != nil {
		return Result{}, err
	}
	if len(train) != len(test) {
		return Result{}, fmt.Errorf("eval: train/test user counts differ (%d vs %d)", len(train), len(test))
	}
	maxN := 0
	for _, n := range opt.TopNs {
		if n > maxN {
			maxN = n
		}
	}

	var userSec *obs.Histogram
	if opt.Metrics != nil {
		opt.Metrics.Help("rrc_eval_user_seconds", "Per-user evaluation replay latency by method.")
		userSec = opt.Metrics.Histogram(
			fmt.Sprintf("rrc_eval_user_seconds{method=%q}", f.Name), obs.LatencyBuckets)
	}
	// Workers claim users in index order, so the claimed users are always
	// a prefix; each writes only its own stats entry.
	stats := make([]userStats, len(test))
	var (
		wg   sync.WaitGroup
		next atomic.Int64
	)
	for w := min(opt.Parallelism, len(test)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				u := int(next.Add(1)) - 1
				if u >= len(test) {
					return
				}
				var began time.Time
				if userSec != nil {
					began = time.Now()
				}
				stats[u] = replayUser(u, train[u], test[u], f, opt, maxN)
				if userSec != nil {
					userSec.ObserveDuration(time.Since(began))
				}
			}
		}()
	}
	wg.Wait()
	done := min(int(next.Load()), len(test))
	res := aggregate(f.Name, stats[:done], len(test), opt)
	res.Interrupted = done < len(test)
	return res, nil
}

// aggregate folds the completed users' stats into the reported Result;
// users is the size of the whole user universe. Iteration is in
// user-index order, so the floating-point accumulation, and therefore the
// reported metrics, are independent of replay scheduling.
func aggregate(method string, stats []userStats, users int, opt Options) Result {
	res := Result{
		Method:    method,
		TopNs:     append([]int(nil), opt.TopNs...),
		MaAP:      make([]float64, len(opt.TopNs)),
		MiAP:      make([]float64, len(opt.TopNs)),
		UsersDone: len(stats),
	}
	totalHits := make([]int, len(opt.TopNs))
	var totalLatency time.Duration
	for _, st := range stats {
		if st.events == 0 {
			continue
		}
		res.Events += st.events
		res.UsersEvaluated++
		res.Recs += st.recs
		res.MRR += st.rrSum
		res.NDCG += st.dcgSum
		totalLatency += st.latency
		for i, h := range st.hits {
			totalHits[i] += h
			res.MiAP[i] += float64(h) / float64(st.events)
		}
	}
	if res.Events > 0 {
		for i := range res.MaAP {
			res.MaAP[i] = float64(totalHits[i]) / float64(res.Events)
		}
		res.MRR /= float64(res.Events)
		res.NDCG /= float64(res.Events)
	}
	if res.UsersEvaluated > 0 {
		for i := range res.MiAP {
			res.MiAP[i] /= float64(res.UsersEvaluated)
		}
	}
	if res.Recs > 0 {
		res.MeanLatency = totalLatency / time.Duration(res.Recs)
	}
	if opt.KeepPerUser {
		res.PerUser = make([]UserOutcome, users)
		for u, st := range stats {
			res.PerUser[u] = UserOutcome{Events: st.events, Hits: st.hits}
		}
	}
	return res
}

// userSeed derives a deterministic per-user stream seed so results do not
// depend on evaluation parallelism or user scheduling order.
func userSeed(base uint64, u int) uint64 {
	x := base ^ (uint64(u)+1)*0x9e3779b97f4a7c15
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	return x
}

func replayUser(u int, train, test seq.Sequence, f rec.Factory, opt Options, maxN int) userStats {
	st := userStats{hits: make([]int, len(opt.TopNs))}
	r := f.New(userSeed(opt.Seed, u))

	// History grows as the test suffix is consumed; pre-size it once.
	history := make(seq.Sequence, len(train), len(train)+len(test))
	copy(history, train)

	w := seq.NewWindow(opt.WindowCap)
	for _, v := range train {
		w.Push(v)
	}
	ctx := rec.Context{User: u, Window: w, Omega: opt.Omega}
	var list []rec.Scored
	for _, v := range test {
		if w.Full() {
			gap, ok := w.Gap(v)
			if ok && gap > opt.Omega {
				ctx.History = history
				st.events++
				var start time.Time
				if opt.MeasureLatency {
					start = time.Now()
				}
				list = r.Recommend(&ctx, maxN, list[:0])
				if opt.MeasureLatency {
					st.latency += time.Since(start)
					st.recs++
				} else {
					st.recs++
				}
				idx := -1
				for i, s := range list {
					if s.Item == v {
						idx = i
						break
					}
				}
				if idx >= 0 {
					for i, n := range opt.TopNs {
						if idx < n {
							st.hits[i]++
						}
					}
					st.rrSum += 1 / float64(idx+1)
					// Single relevant item: ideal DCG is 1, so nDCG at
					// this event is just the discounted gain at its rank.
					st.dcgSum += 1 / math.Log2(float64(idx+2))
				}
			}
		}
		w.Push(v)
		history = append(history, v)
	}
	return st
}

// EvaluateAll runs Evaluate for every factory, in order.
func EvaluateAll(train, test []seq.Sequence, fs []rec.Factory, opt Options) ([]Result, error) {
	return EvaluateAllContext(context.Background(), train, test, fs, opt)
}

// EvaluateAllContext runs EvaluateContext for every factory, in order,
// stopping at the first interrupted (or failed) evaluation so a cancelled
// sweep never reports methods evaluated on disjoint user subsets.
func EvaluateAllContext(ctx context.Context, train, test []seq.Sequence, fs []rec.Factory, opt Options) ([]Result, error) {
	out := make([]Result, 0, len(fs))
	for _, f := range fs {
		r, err := EvaluateContext(ctx, train, test, f, opt)
		if err != nil {
			return nil, fmt.Errorf("eval: method %s: %w", f.Name, err)
		}
		out = append(out, r)
		if r.Interrupted {
			if cause := context.Cause(ctx); cause != nil {
				return out, fmt.Errorf("eval: method %s interrupted: %w", f.Name, cause)
			}
			return out, fmt.Errorf("eval: method %s interrupted", f.Name)
		}
	}
	return out, nil
}

// Best returns the result with the highest MaAP at the given N among rs,
// excluding any method named in exclude. Used for the paper's Table 3
// ("best of all baselines").
func Best(rs []Result, n int, exclude map[string]bool) (Result, bool) {
	bestIdx, bestVal := -1, -1.0
	for i, r := range rs {
		if exclude[r.Method] {
			continue
		}
		ma, _, ok := r.At(n)
		if !ok {
			continue
		}
		if ma > bestVal {
			bestVal, bestIdx = ma, i
		}
	}
	if bestIdx < 0 {
		return Result{}, false
	}
	return rs[bestIdx], true
}

// SortByMaAP orders results descending by MaAP at the given N (stable).
func SortByMaAP(rs []Result, n int) {
	sort.SliceStable(rs, func(i, j int) bool {
		a, _, _ := rs[i].At(n)
		b, _, _ := rs[j].At(n)
		return a > b
	})
}
