package serve

import (
	"encoding/json"
	"net/http"
	"sync"
	"testing"

	"tsppr/internal/engine"
	"tsppr/internal/rec"
	"tsppr/internal/seq"
)

// cached turns the /recommend/user response cache on.
func cached(o *Options) { o.CacheEntries = 1 << 12 }

// TestResponseCacheHitsServeIdenticalBytes drives the handler twice for
// an unchanged user and checks the cached second answer is exactly the
// first, that the hit/miss counters moved, and that a consume in
// between invalidates: the next read re-scores against the new window
// rather than serving the stale entry.
func TestResponseCacheHitsServeIdenticalBytes(t *testing.T) {
	m, seqs := trained(t, 8)
	srv := newNode(t, m, "", cached)
	for _, v := range seqs[0][:30] {
		mustConsume(t, srv, event{user: 0, item: int(v)})
	}
	first := expect(t, http.StatusOK, srv, "POST /recommend/user", recommendUserRequest{User: 0, N: 5})
	second := expect(t, http.StatusOK, srv, "POST /recommend/user", recommendUserRequest{User: 0, N: 5})
	if first.Body.String() != second.Body.String() {
		t.Fatalf("cached read differs:\n%s\n%s", first.Body.String(), second.Body.String())
	}
	st := srv.cache.Stats()
	if st.Hits != 1 || st.Misses < 1 {
		t.Fatalf("stats after repeat read = %+v", st)
	}
	// A different request shape is its own variant, not a hit.
	expect(t, http.StatusOK, srv, "POST /recommend/user", recommendUserRequest{User: 0, N: 3})
	if st = srv.cache.Stats(); st.Hits != 1 {
		t.Fatalf("different N hit the N=5 entry: %+v", st)
	}

	// Consume, then read again: the answer must track the new window.
	mustConsume(t, srv, event{user: 0, item: int(seqs[0][30])})
	third := expect(t, http.StatusOK, srv, "POST /recommend/user", recommendUserRequest{User: 0, N: 5})
	ex := srv.currentModel().Extractor
	w := seq.NewWindow(ex.WindowCap())
	for _, v := range seqs[0][:31] {
		w.Push(v)
	}
	ref := engine.New(srv.currentModel())
	want := ref.Recommend(&rec.Context{User: 0, Window: w, Omega: ex.Omega()}, 5, nil)
	got := decodeAs[recommendResponse](t, third.Body.Bytes())
	if len(got.Items) != len(want) {
		t.Fatalf("post-consume read: %d items, want %d", len(got.Items), len(want))
	}
	for i := range want {
		if got.Items[i] != int(want[i].Item) || got.Scores[i] != want[i].Score {
			t.Fatalf("post-consume rank %d: got (%d,%v), want (%d,%v)",
				i, got.Items[i], got.Scores[i], want[i].Item, want[i].Score)
		}
	}
	if st = srv.cache.Stats(); st.Invalidations < 1 {
		t.Fatalf("consume did not invalidate: %+v", st)
	}
}

// TestResponseCacheEmptyResultServesJSONArrays pins the wire shape of
// an empty cached answer: a user whose whole window is inside Ω has no
// candidates, and the cached read must serve {"items":[],"scores":[]}
// byte-identically to the uncached first read — not null, which is what
// a nil-buffer fill would produce.
func TestResponseCacheEmptyResultServesJSONArrays(t *testing.T) {
	m, _ := trained(t, 8)
	srv := newNode(t, m, "", cached)
	for i := 0; i < 3; i++ {
		mustConsume(t, srv, event{user: 0, item: i})
	}
	first := send(srv, "POST /recommend/user", recommendUserRequest{User: 0, N: 5})
	second := send(srv, "POST /recommend/user", recommendUserRequest{User: 0, N: 5})
	if first.Code != http.StatusOK || second.Code != http.StatusOK {
		t.Fatalf("reads: %d, %d", first.Code, second.Code)
	}
	if st := srv.cache.Stats(); st.Hits != 1 {
		t.Fatalf("second read was not a hit: %+v", st)
	}
	if first.Body.String() != second.Body.String() {
		t.Fatalf("empty cached read differs:\n%s\n%s", first.Body.String(), second.Body.String())
	}
	raw := decodeAs[map[string]json.RawMessage](t, second.Body.Bytes())
	for _, field := range []string{"items", "scores"} {
		if string(raw[field]) != "[]" {
			t.Fatalf("%s = %s, want []", field, raw[field])
		}
	}
}

// TestResponseCachePurgedOnReload pins the hot-swap rule: a model
// reload changes scores under unchanged LSNs, so it must purge the
// cache and advance the epoch rather than keep serving old-model
// answers.
func TestResponseCachePurgedOnReload(t *testing.T) {
	m, seqs := trained(t, 8)
	srv := newNode(t, m, "", cached, reloadsFrom(t, m))
	for _, v := range seqs[1][:20] {
		mustConsume(t, srv, event{user: 1, item: int(v)})
	}
	expect(t, http.StatusOK, srv, "POST /recommend/user", recommendUserRequest{User: 1, N: 5})
	if srv.cache.Len() == 0 {
		t.Fatal("read did not fill the cache")
	}
	epoch := srv.cache.Epoch()
	if err := srv.reload(); err != nil {
		t.Fatal(err)
	}
	if srv.cache.Len() != 0 {
		t.Fatal("reload left cached entries behind")
	}
	if srv.cache.Epoch() != epoch+1 {
		t.Fatalf("epoch = %d, want %d", srv.cache.Epoch(), epoch+1)
	}
}

// TestResponseCacheCoherence is the acceptance race: per-user writers
// interleave /consume and /recommend/user while another goroutine
// hot-swaps the model (the SIGHUP path) in a loop, all under -race via
// make check. Every /recommend/user answer must be byte-identical to an
// uncached reference engine evaluated on that user's true window at
// that moment — a stale answer after a consume is a failure, whether it
// came from the cache or from a torn fill.
func TestResponseCacheCoherence(t *testing.T) {
	m, seqs := trained(t, 8)
	srv := newNode(t, m, "", cached, reloadsFrom(t, m))
	// The reference engine: same parameters the hot-swapped engines
	// load, model I/O is bit-exact, and scoring is deterministic — so
	// cached, freshly-scored, and post-swap answers must all coincide.
	ref := engine.New(srv.currentModel())
	omega := srv.currentModel().Extractor.Omega()

	const users, steps = 4, 120
	stopReload := make(chan struct{})
	var reloader sync.WaitGroup
	reloader.Add(1)
	go func() {
		defer reloader.Done()
		for {
			select {
			case <-stopReload:
				return
			default:
				if err := srv.reload(); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()

	var wg sync.WaitGroup
	for u := 0; u < users; u++ {
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			shadow := seq.NewWindow(srv.currentModel().Extractor.WindowCap())
			s := seqs[u]
			for i := 0; i < steps; i++ {
				item := s[i%len(s)]
				rr := send(srv, "POST /consume", consumeRequest{User: u, Item: int(item)})
				if rr.Code != http.StatusOK {
					t.Errorf("user %d consume %d: %d %s", u, i, rr.Code, rr.Body.String())
					return
				}
				shadow.Push(item)
				// Two reads per step: the second is a repeat of an
				// unchanged user, so across the run some must be served
				// from the cache — and both must equal the reference.
				for r := 0; r < 2; r++ {
					rr = send(srv, "POST /recommend/user", recommendUserRequest{User: u, N: 5})
					if rr.Code != http.StatusOK {
						t.Errorf("user %d read %d: %d %s", u, i, rr.Code, rr.Body.String())
						return
					}
					got := decodeAs[recommendResponse](t, rr.Body.Bytes())
					want := ref.Recommend(&rec.Context{User: u, Window: shadow, Omega: omega}, 5, nil)
					if len(got.Items) != len(want) {
						t.Errorf("user %d step %d: %d items, want %d (stale after consume?)",
							u, i, len(got.Items), len(want))
						return
					}
					for j := range want {
						if got.Items[j] != int(want[j].Item) || got.Scores[j] != want[j].Score {
							t.Errorf("user %d step %d rank %d: got (%d,%v), want (%d,%v) — stale or torn response",
								u, i, j, got.Items[j], got.Scores[j], want[j].Item, want[j].Score)
							return
						}
					}
				}
			}
		}(u)
	}
	wg.Wait()
	close(stopReload)
	reloader.Wait()
	if t.Failed() {
		return
	}

	// With the swapper quiesced, a repeat read must be a cache hit and
	// still byte-identical.
	before := srv.cache.Stats()
	first := send(srv, "POST /recommend/user", recommendUserRequest{User: 0, N: 5})
	second := send(srv, "POST /recommend/user", recommendUserRequest{User: 0, N: 5})
	if first.Code != http.StatusOK || second.Code != http.StatusOK {
		t.Fatalf("quiesced reads: %d, %d", first.Code, second.Code)
	}
	if first.Body.String() != second.Body.String() {
		t.Fatalf("quiesced cached read differs:\n%s\n%s", first.Body.String(), second.Body.String())
	}
	after := srv.cache.Stats()
	if after.Hits <= before.Hits {
		t.Fatalf("no cache hit on quiesced repeat read: %+v → %+v", before, after)
	}
}
