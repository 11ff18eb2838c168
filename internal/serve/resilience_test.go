package serve

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"tsppr/internal/core"
	"tsppr/internal/faultinject"
	"tsppr/internal/features"
	"tsppr/internal/httpserve"
	"tsppr/internal/linalg"
)

// TestScorerFaults: every answer is the model's or an error. A scorer
// panic is a 500 (in a batch, that entry's "internal error"); a deadline
// that expired before scoring is a 503 + Retry-After: 1. Either way the
// node stays live and ready, caches nothing, and scores the next request.
func TestScorerFaults(t *testing.T) {
	defer func(p int) { batchParallelism = p }(batchParallelism)
	batchParallelism = 2 // the fan-out path, whose goroutines recovered cannot see
	panicOnce := faultinject.Plan{Mode: faultinject.Panic, Count: 1}
	for _, tc := range []struct {
		name                     string
		plan                     faultinject.Plan
		reqTimeout               time.Duration
		path                     string
		want                     int
		wantPanics, wantTimeouts int64
	}{
		{"recommend-panic", panicOnce, 0, "/recommend", http.StatusInternalServerError, 1, 0},
		{"recommend-stall", faultinject.Plan{Mode: faultinject.Delay, Sleep: 300 * time.Millisecond, Count: 1},
			30 * time.Millisecond, "/recommend", http.StatusServiceUnavailable, 0, 1},
		{"batch-entry-panic", panicOnce, 0, "/recommend/batch", http.StatusOK, 1, 0},
		{"recommend-user-panic", panicOnce, 0, "/recommend/user", http.StatusInternalServerError, 1, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			faultinject.Reset()
			defer faultinject.Reset()
			m, seqs := trained(t, 8)
			srv := newNode(t, m, "", cached, func(o *Options) {
				if tc.reqTimeout > 0 {
					o.ReqTimeout = tc.reqTimeout
				}
			})
			history := ints(seqs[0][:40])
			for _, v := range history {
				mustConsume(t, srv, event{user: 0, item: v})
			}
			one := recommendRequest{User: 0, History: history, N: 5}
			body := map[string]any{
				"/recommend":       one,
				"/recommend/batch": batchRequest{Requests: []recommendRequest{one, one, one, one}},
				"/recommend/user":  recommendUserRequest{User: 0, N: 5},
			}[tc.path]

			faultinject.Arm("server.score", tc.plan)
			rr := expect(t, tc.want, srv, "POST "+tc.path, body)
			if tc.want == http.StatusServiceUnavailable {
				if ra := rr.Header().Get("Retry-After"); ra != "1" {
					t.Fatalf("Retry-After %q, want 1", ra)
				}
			}
			if p, to := srv.panics.Value(), srv.timeouts.Value(); p != tc.wantPanics || to != tc.wantTimeouts {
				t.Fatalf("rrc_panics_total %d, rrc_timeouts_total %d; want %d, %d", p, to, tc.wantPanics, tc.wantTimeouts)
			}
			if tc.path == "/recommend/batch" {
				failed := 0
				for i, e := range decodeAs[batchResponse](t, rr.Body.Bytes()).Responses {
					switch {
					case e.Error == "internal error" && len(e.Items) == 0:
						failed++
					case e.Error != "" || len(e.Items) == 0:
						t.Fatalf("entry %d = %+v", i, e)
					}
				}
				if failed != 1 {
					t.Fatalf("%d entries failed, want the one that panicked: %s", failed, rr.Body.String())
				}
			}
			if n := srv.cache.Len(); n != 0 {
				t.Fatalf("a faulted request left %d cached entries", n)
			}
			expect(t, http.StatusOK, srv, "GET /healthz", nil)
			expect(t, http.StatusOK, srv, "GET /readyz", nil)
			if rr := send(srv, "POST "+tc.path, body); rr.Code != http.StatusOK || strings.Contains(rr.Body.String(), "error") {
				t.Fatalf("next request: %d %s", rr.Code, rr.Body.String())
			}
			if tc.path == "/recommend/user" && srv.cache.Len() != 1 {
				t.Fatal("the next read did not fill the cache")
			}
		})
	}
}

// TestLoadShedding saturates a 1-slot server with stalled requests and
// expects 429 + Retry-After for the overflow, then normal service after
// the stall clears.
func TestLoadShedding(t *testing.T) {
	faultinject.Reset()
	defer faultinject.Reset()
	m, seqs := trained(t, 8)
	history := ints(seqs[0][:40])
	srv := newNode(t, m, "", func(o *Options) { o.MaxInFlight = 1 })
	faultinject.Arm("server.score", faultinject.Plan{Mode: faultinject.Delay, Sleep: 150 * time.Millisecond})

	const clients = 6
	codes := make([]int, clients)
	retryAfter := make([]string, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rr := send(srv, "POST /recommend", recommendRequest{User: 0, History: history, N: 3})
			codes[i] = rr.Code
			retryAfter[i] = rr.Header().Get("Retry-After")
		}(i)
	}
	wg.Wait()
	oks, sheds := 0, 0
	for i, c := range codes {
		switch c {
		case http.StatusOK:
			oks++
		case http.StatusTooManyRequests:
			sheds++
			if retryAfter[i] == "" {
				t.Fatal("429 without Retry-After")
			}
		default:
			t.Fatalf("unexpected status %d", c)
		}
	}
	if oks == 0 || sheds == 0 {
		t.Fatalf("oks=%d sheds=%d, want both under saturation", oks, sheds)
	}
	if srv.shed.Value() != int64(sheds) {
		t.Fatalf("shed counter %d != %d observed", srv.shed.Value(), sheds)
	}

	// Load gone: the same server serves normally again.
	faultinject.Reset()
	expect(t, http.StatusOK, srv, "POST /recommend", recommendRequest{User: 0, History: history, N: 3})
}

// TestStalledScorerHoldsItsSlot: scoring runs on the request goroutine,
// so a request stalled in the scorer keeps its -max-inflight slot until
// the stall ends, however early its deadline passes. A second request
// meanwhile is shed with 429, and the stalled one, finding its deadline
// gone, answers 503 + Retry-After rather than a late ranking.
func TestStalledScorerHoldsItsSlot(t *testing.T) {
	faultinject.Reset()
	defer faultinject.Reset()
	m, seqs := trained(t, 8)
	srv := newNode(t, m, "", func(o *Options) { o.MaxInFlight, o.ReqTimeout = 1, 30*time.Millisecond })
	faultinject.Arm("server.score", faultinject.Plan{Mode: faultinject.Delay, Sleep: 300 * time.Millisecond, Count: 1})

	req := recommendRequest{User: 0, History: ints(seqs[0][:40]), N: 3}
	first := make(chan *httptest.ResponseRecorder, 1)
	go func() { first <- send(srv, "POST /recommend", req) }()
	time.Sleep(60 * time.Millisecond) // past A's deadline, inside its stall
	expect(t, http.StatusTooManyRequests, srv, "POST /recommend", req)
	a := <-first
	if a.Code != http.StatusServiceUnavailable {
		t.Fatalf("stalled request A: %d %s, want 503", a.Code, a.Body.String())
	}
	assertRetryAfter(t, a, "/recommend")
}

// TestGracefulShutdownDrain serves on httpserve, as main does, parks a
// slow request in flight, and verifies Shutdown waits for it to complete
// successfully.
func TestGracefulShutdownDrain(t *testing.T) {
	faultinject.Reset()
	defer faultinject.Reset()
	m, seqs := trained(t, 8)
	srv := newNode(t, m, "")
	faultinject.Arm("server.score", faultinject.Plan{Mode: faultinject.Delay, Sleep: 300 * time.Millisecond, Count: 1})

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	httpSrv := httpserve.New(srv, httpserve.Config{})
	go httpSrv.Serve(ln)

	url := fmt.Sprintf("http://%s/recommend", ln.Addr())
	type result struct {
		code int
		err  error
	}
	done := make(chan result, 1)
	go func() {
		raw, _ := json.Marshal(recommendRequest{User: 0, History: ints(seqs[0][:40]), N: 3})
		resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
		if err != nil {
			done <- result{err: err}
			return
		}
		defer resp.Body.Close()
		done <- result{code: resp.StatusCode}
	}()

	time.Sleep(100 * time.Millisecond) // request now parked in the scorer stall
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown did not drain: %v", err)
	}
	res := <-done
	if res.err != nil {
		t.Fatalf("in-flight request dropped during drain: %v", res.err)
	}
	if res.code != http.StatusOK {
		t.Fatalf("in-flight request got %d", res.code)
	}
}

// TestHotReload exercises the SIGHUP path end to end: a valid new model
// file swaps in, an invalid one is rejected while the old model keeps
// serving.
func TestHotReload(t *testing.T) {
	faultinject.Reset()
	m, seqs := trained(t, 8)
	srv := newNode(t, m, "", reloadsFrom(t, m))
	path := srv.opts.ModelPath
	history := ints(seqs[0][:40])
	serve := func() int {
		return send(srv, "POST /recommend", recommendRequest{User: 0, History: history, N: 3}).Code
	}
	if serve() != http.StatusOK {
		t.Fatal("baseline request failed")
	}

	// Deliver a real SIGHUP value through the watch loop.
	sig := make(chan os.Signal, 1)
	go srv.WatchReload(sig)
	sig <- syscall.SIGHUP
	deadline := time.Now().Add(2 * time.Second)
	for srv.reloads.Value() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	close(sig)
	if srv.reloads.Value() != 1 {
		t.Fatal("SIGHUP did not trigger a reload")
	}
	if serve() != http.StatusOK {
		t.Fatal("serving broken after reload")
	}

	// Corrupt the file on disk: reload must be rejected, the old model
	// must keep serving.
	if err := os.WriteFile(path, []byte("TSPPRv2\ngarbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	old := srv.currentModel()
	if err := srv.reload(); err == nil {
		t.Fatal("reload accepted a corrupt model file")
	}
	if srv.currentModel() != old {
		t.Fatal("corrupt reload displaced the serving model")
	}
	if serve() != http.StatusOK {
		t.Fatal("serving broken after rejected reload")
	}
	if srv.reloads.Value() != 1 {
		t.Fatal("rejected reload bumped the success counter")
	}

	// A model that differs only in Ω swaps in: the default Ω follows it,
	// and the response cache, keyed by (user, Ω, N), is empty afterwards.
	online := newNode(t, m, "", cached, reloadsFrom(t, m))
	for _, v := range history {
		mustConsume(t, online, event{user: 0, item: v})
	}
	if rr := send(online, "POST /recommend/user", recommendUserRequest{User: 0, N: 3}); rr.Code != http.StatusOK || online.cache.Len() == 0 {
		t.Fatalf("read did not fill the cache: %d %s", rr.Code, rr.Body.String())
	}
	cur := online.currentModel()
	if err := reshapedModel(t, cur, 20, 15, cur.NumItems()).SaveFile(online.opts.ModelPath); err != nil {
		t.Fatal(err)
	}
	if err := online.reload(); err != nil {
		t.Fatalf("reload of an Ω-only change: %v", err)
	}
	if online.cache.Len() != 0 || online.reloads.Value() != 1 {
		t.Fatalf("after the Ω reload: %d cached entries, %d reloads", online.cache.Len(), online.reloads.Value())
	}
	answer := func(omega *int) string {
		return send(online, "POST /recommend", recommendRequest{User: 0, History: history, N: 3, Omega: omega}).Body.String()
	}
	fifteen, three := 15, 3
	if got := answer(nil); got != answer(&fifteen) || got == answer(&three) {
		t.Fatalf("default-Ω answer %s is not the Ω = 15 one", got)
	}
}

// reshapedModel is m with its extractor rebuilt at (window, omega) and
// its item universe grown to items; the new items get zero factors and
// zero static features. It saves as a valid model file of another shape.
func reshapedModel(t *testing.T, m *core.Model, window, omega, items int) *core.Model {
	t.Helper()
	quality, reratio := m.Extractor.Tables()
	grow := func(xs []float64) []float64 {
		return append(append([]float64(nil), xs...), make([]float64, items-len(xs))...)
	}
	ex, err := features.FromTables(m.Extractor.Mask(), m.Extractor.RecencyKind(), window, omega, grow(quality), grow(reratio))
	if err != nil {
		t.Fatal(err)
	}
	v := linalg.NewMatrix(items, m.K)
	copy(v.Data, m.V.Data)
	return &core.Model{K: m.K, F: m.F, MapType: m.MapType, U: m.U, V: v, A: m.A, Extractor: ex}
}

// TestReloadKeepsTheServedShape: the shard pool's rings and id bounds
// were sized from the boot model, so a SIGHUP model with another user
// count, item count or |W| is refused by name, and the old model keeps
// serving with reloads unmoved. Before, a reload to a larger universe
// let /consume fsync and ack an event the session store then dropped as
// out of range: the user's /recommend/user answered 404 until a restart
// replayed it.
func TestReloadKeepsTheServedShape(t *testing.T) {
	m, _ := trained(t, 8)
	wide, _ := trained(t, 12)
	items := m.NumItems()
	for _, tc := range []struct {
		name  string
		next  *core.Model
		want  string
		probe consumeRequest // outside the serving model's bounds
	}{
		{"users", wide, "12 users", consumeRequest{User: 10, Item: 0}},
		{"items", reshapedModel(t, m, 20, 3, items+5), fmt.Sprintf("%d items", items+5), consumeRequest{User: 0, Item: items}},
		{"window", reshapedModel(t, m, 30, 3, items), "|W| = 30", consumeRequest{User: 0, Item: items}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := newNode(t, m, "", reloadsFrom(t, tc.next))
			served := srv.currentModel()
			if err := srv.reload(); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("reload = %v, want a refusal naming %q", err, tc.want)
			}
			if srv.currentModel() != served || srv.reloads.Value() != 0 {
				t.Fatal("refused reload displaced the serving model")
			}
			expect(t, http.StatusBadRequest, srv, "POST /consume", tc.probe)
			for _, st := range srv.pool.Statuses() {
				if st.Dropped != 0 {
					t.Fatalf("shard status %+v: an acked event was dropped", st)
				}
			}
		})
	}
}

// TestHotReloadRejectsHostileShapeHeader: a model file damaged into a
// header that claims the largest shape the range checks admit (2²⁸ users
// × 2²⁰ factors) and then ends used to size its tables from the claim —
// a makeslice panic (or an OOM kill) inside the SIGHUP handler, whose
// contract is validate-then-swap. The loader now allocates by bytes
// read, so this is one more rejected reload.
func TestHotReloadRejectsHostileShapeHeader(t *testing.T) {
	faultinject.Reset()
	m, seqs := trained(t, 8)
	srv := newNode(t, m, "", reloadsFrom(t, m))
	served := srv.currentModel()
	blob := []byte("TSPPRv2\n")
	for _, v := range []uint64{1 << 20, 4, 0, 1 << 28, 1 << 28} { // K, F, per-user maps, users, items
		blob = binary.LittleEndian.AppendUint64(blob, v)
	}
	if err := os.WriteFile(srv.opts.ModelPath, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := srv.reload(); err == nil {
		t.Fatal("reload accepted a header-only model file")
	}
	if srv.currentModel() != served || srv.reloads.Value() != 0 {
		t.Fatal("rejected reload displaced the serving model")
	}
	if code := send(srv, "POST /recommend", recommendRequest{User: 0, History: ints(seqs[0][:40]), N: 3}).Code; code != http.StatusOK {
		t.Fatalf("serving broken after rejected reload: %d", code)
	}
}

// TestHotReloadFoldsMapsAndRejectsDamagedOnes: the SIGHUP path loads for
// serving — the swapped-in model holds no A_u, answers byte-identically
// and reports 8·users·K·F fewer resident bytes — and the checks that used
// to run over the resident maps still stand in front of the swap: a file
// that checksums but holds +Inf in one A_u, and a file with one flipped
// byte inside the A section — under its own magic or the checksum-less v1's
// — are all rejected while the old model serves.
func TestHotReloadFoldsMapsAndRejectsDamagedOnes(t *testing.T) {
	faultinject.Reset()
	m, seqs := trained(t, 8)
	srv := newNode(t, m, "", reloadsFrom(t, m))
	path := srv.opts.ModelPath
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	history := ints(seqs[0][:40])
	serve := func() string {
		t.Helper()
		rr := expect(t, http.StatusOK, srv, "POST /recommend", recommendRequest{User: 0, History: history, N: 5})
		return rr.Body.String()
	}
	before, fullBytes, full := serve(), srv.modelBytes.Value(), srv.currentModel()
	if err := srv.reload(); err != nil {
		t.Fatal(err)
	}
	folded := srv.currentModel()
	if folded == full || folded.A != nil {
		t.Fatalf("reload kept %d per-user maps resident", len(folded.A))
	}
	if after := serve(); after != before {
		t.Fatalf("folded model answers differently:\n%s\n%s", before, after)
	}
	maps := float64(8 * m.NumUsers() * m.K * m.F)
	if got := srv.modelBytes.Value(); got <= 0 || got != fullBytes-maps {
		t.Fatalf("rrc_model_resident_bytes = %v after the serving load, want %v - %v", got, fullBytes, maps)
	}

	aStart := 8 + 5*8 + 8*(m.NumUsers()+m.NumItems())*m.K + 8 // magic, header, U, V, map count
	infected := append([]byte(nil), good...)
	binary.LittleEndian.PutUint64(infected[aStart+8*(2*m.K*m.F+1):], math.Float64bits(math.Inf(1)))
	body := infected[8 : len(infected)-4]
	binary.LittleEndian.PutUint32(infected[len(infected)-4:], crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli)))
	flipped := append([]byte(nil), good...)
	flipped[aStart+8*m.K*m.F+3] ^= 0x01 // a mantissa bit of user 1's block: still finite, only the CRC sees it
	downgraded := append([]byte(nil), flipped...)
	downgraded[6] = '1' // "TSPPRv1\n" had no checksum to fail
	for _, tc := range []struct {
		name, want string
		blob       []byte
	}{
		{"+Inf in A[2]", "non-finite value in A[2]", infected},
		{"flipped byte in A", "checksum mismatch", flipped},
		{"flipped byte in A, magic rewritten to v1", "bad model magic", downgraded},
	} {
		if err := os.WriteFile(path, tc.blob, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := srv.reload(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: reload = %v, want an error naming %q", tc.name, err, tc.want)
		}
		if srv.currentModel() != folded || srv.reloads.Value() != 1 {
			t.Fatalf("%s: rejected reload displaced the serving model", tc.name)
		}
		if after := serve(); after != before {
			t.Fatalf("%s: answers changed after a rejected reload", tc.name)
		}
	}
}

// TestRecoveredMiddleware proves a panic below the mux becomes a 500, not
// a dead process.
func TestRecoveredMiddleware(t *testing.T) {
	m, _ := trained(t, 8)
	srv := newNode(t, m, "")
	h := srv.recovered(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic("handler bug")
	}))
	expect(t, http.StatusInternalServerError, h, "GET /recommend", nil)
	if srv.panics.Value() != 1 {
		t.Fatal("panic not counted")
	}
}

// TestRequestEntityTooLarge checks the 413 satellite: an oversized body
// is distinguished from a malformed one.
func TestRequestEntityTooLarge(t *testing.T) {
	m, _ := trained(t, 8)
	// ~8 MB of JSON zeros, comfortably past the 4 MB body cap.
	big := make([]int, 1<<22)
	expect(t, http.StatusRequestEntityTooLarge, newNode(t, m, ""), "POST /recommend", recommendRequest{User: 0, History: big})
}

// TestHistoryIDBounds checks the 400 satellite: item ids at or above the
// model's item universe are rejected up front.
func TestHistoryIDBounds(t *testing.T) {
	m, seqs := trained(t, 8)
	bad := append(ints(seqs[0][:40]), m.NumItems())
	expect(t, http.StatusBadRequest, newNode(t, m, ""), "POST /recommend", recommendRequest{User: 0, History: bad})
}
