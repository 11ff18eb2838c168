package eval

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"

	"tsppr/internal/rec"
	"tsppr/internal/seq"
)

// cancelAfter wraps f so that its k-th New, which starts the k-th user's
// replay, cancels the evaluation's context. That user still completes.
func cancelAfter(f rec.Factory, k int, cancel context.CancelFunc) rec.Factory {
	var started atomic.Int64
	return rec.Factory{Name: f.Name, New: func(seed uint64) rec.Recommender {
		if started.Add(1) == int64(k) {
			cancel()
		}
		return f.New(seed)
	}}
}

// metricsString flattens every reported aggregate, per-user outcomes
// included, for byte-identity comparison.
func metricsString(r Result) string {
	return fmt.Sprintf("%s %v %v %v %v %v %d %d %d %v",
		r.Method, r.TopNs, r.MaAP, r.MiAP, r.MRR, r.NDCG, r.Events, r.UsersEvaluated, r.Recs, r.PerUser)
}

// TestEvaluateContextCancelled pins what a cancelled evaluation returns: a
// nil error and a partial Result, Interrupted, whose aggregates are those
// of the users replayed before the cancellation and of no other.
func TestEvaluateContextCancelled(t *testing.T) {
	const users = 8
	var train, test []seq.Sequence
	for u := 0; u < users; u++ {
		s := cycle(5+u%3, 60)
		train, test = append(train, s[:40]), append(test, s[40:])
	}
	opt := Options{WindowCap: 10, Omega: 2, TopNs: []int{1, 5}, Seed: 5, Parallelism: 1, KeepPerUser: true}
	for _, tc := range []struct {
		name string
		k    int // users replayed before the cancellation takes hold
	}{
		{"upfront", 0},
		{"after 3 users", 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			f := oldestCandidate()
			if tc.k == 0 {
				cancel()
			} else {
				f = cancelAfter(f, tc.k, cancel)
			}
			r, err := EvaluateContext(ctx, train, test, f, opt)
			if err != nil {
				t.Fatal(err)
			}
			if !r.Interrupted {
				t.Fatal("cancelled evaluation not reported as interrupted")
			}
			if r.UsersDone != tc.k {
				t.Fatalf("UsersDone = %d, want %d of %d", r.UsersDone, tc.k, users)
			}
			if len(r.PerUser) != users {
				t.Fatalf("len(PerUser) = %d, want %d", len(r.PerUser), users)
			}
			ref, err := Evaluate(train[:tc.k], test[:tc.k], oldestCandidate(), opt)
			if err != nil {
				t.Fatal(err)
			}
			for u, o := range r.PerUser[tc.k:] {
				if o.Events != 0 || o.Hits != nil {
					t.Fatalf("user %d was not replayed but has outcome %+v", tc.k+u, o)
				}
			}
			r.PerUser = r.PerUser[:tc.k]
			if got, want := metricsString(r), metricsString(ref); got != want {
				t.Fatalf("partial metrics are not those of the first %d users:\n got %s\nwant %s", tc.k, got, want)
			}
		})
	}
}
