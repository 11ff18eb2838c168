package main

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
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"tsppr/internal/faultinject"
)

// faultServer builds a server with tight resilience knobs for tests.
func faultServer(t *testing.T, opts serverOptions) (*server, []int) {
	t.Helper()
	base, seqs := testServer(t)
	opts.windowCap = 20
	opts.defaultOmega = 3
	srv := newServer(base.currentModel(), opts)
	history := make([]int, 0, 40)
	for _, v := range seqs[0][:40] {
		history = append(history, int(v))
	}
	return srv, history
}

func getCode(t *testing.T, h http.Handler, path string) int {
	t.Helper()
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, path, nil))
	return rr.Code
}

// TestFallbackUnderScorerPanic proves the headline resilience property:
// with the primary scorer panicking on every request, the server keeps
// answering 200s from the fallback scorer, flips /readyz to 503 after the
// failure threshold, and recovers via probing once the panics stop.
func TestFallbackUnderScorerPanic(t *testing.T) {
	faultinject.Reset()
	defer faultinject.Reset()
	srv, history := faultServer(t, serverOptions{failThreshold: 3, probeEvery: 2})
	h := srv.routes()

	faultinject.Arm("server.score", faultinject.Plan{Mode: faultinject.Panic})
	inHistory := map[int]bool{}
	for _, v := range history {
		inHistory[v] = true
	}
	for i := 0; i < 5; i++ {
		rr := postJSON(t, h, "/recommend", recommendRequest{User: 0, History: history, N: 5})
		if rr.Code != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, rr.Code, rr.Body.String())
		}
		var resp recommendResponse
		if err := json.Unmarshal(rr.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if !resp.Degraded {
			t.Fatalf("request %d not marked degraded", i)
		}
		if len(resp.Items) == 0 {
			t.Fatalf("request %d: fallback returned no items", i)
		}
		for j, it := range resp.Items {
			if !inHistory[it] {
				t.Fatalf("fallback recommended %d not in history", it)
			}
			if j > 0 && resp.Scores[j] > resp.Scores[j-1] {
				t.Fatalf("fallback scores not descending: %v", resp.Scores)
			}
		}
	}
	// Liveness stays green, readiness goes red.
	if code := getCode(t, h, "/healthz"); code != http.StatusOK {
		t.Fatalf("healthz = %d while degraded", code)
	}
	if code := getCode(t, h, "/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("readyz = %d, want 503 while degraded", code)
	}
	if p, f := srv.panics.Value(), srv.fallbacks.Value(); p < 3 || f != 5 || !srv.degraded.Load() {
		t.Fatalf("panics=%d fallbacks=%d degraded=%v, want >=3, 5, true", p, f, srv.degraded.Load())
	}

	// Stop injecting: within probeEvery requests a probe hits the healthy
	// primary and the server leaves degraded mode.
	faultinject.Reset()
	for i := 0; i < 4 && srv.degraded.Load(); i++ {
		postJSON(t, h, "/recommend", recommendRequest{User: 0, History: history, N: 5})
	}
	if code := getCode(t, h, "/readyz"); code != http.StatusOK {
		t.Fatalf("readyz = %d after recovery", code)
	}
	rr := postJSON(t, h, "/recommend", recommendRequest{User: 0, History: history, N: 5})
	var resp recommendResponse
	if err := json.Unmarshal(rr.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Degraded {
		t.Fatal("still degraded after primary recovered")
	}
}

// TestFallbackUnderScorerTimeout stalls the primary past the request
// deadline and expects a timely degraded answer.
func TestFallbackUnderScorerTimeout(t *testing.T) {
	faultinject.Reset()
	defer faultinject.Reset()
	srv, history := faultServer(t, serverOptions{reqTimeout: 30 * time.Millisecond})
	h := srv.routes()
	faultinject.Arm("server.score", faultinject.Plan{Mode: faultinject.Delay, Sleep: 300 * time.Millisecond})

	start := time.Now()
	rr := postJSON(t, h, "/recommend", recommendRequest{User: 0, History: history, N: 5})
	if rr.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rr.Code, rr.Body.String())
	}
	if elapsed := time.Since(start); elapsed > 250*time.Millisecond {
		t.Fatalf("answer took %v, deadline not enforced", elapsed)
	}
	var resp recommendResponse
	if err := json.Unmarshal(rr.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Degraded || len(resp.Items) == 0 {
		t.Fatalf("resp = %+v, want degraded fallback items", resp)
	}
	if srv.timeouts.Value() == 0 {
		t.Fatal("timeout not counted")
	}
}

// TestBatchDegradedEntries checks the batch endpoint survives primary
// panics per entry.
func TestBatchDegradedEntries(t *testing.T) {
	faultinject.Reset()
	defer faultinject.Reset()
	srv, history := faultServer(t, serverOptions{})
	h := srv.routes()
	faultinject.Arm("server.score", faultinject.Plan{Mode: faultinject.Panic})
	rr := postJSON(t, h, "/recommend/batch", batchRequest{Requests: []recommendRequest{
		{User: 0, History: history, N: 3},
		{User: -1, History: history}, // caller error, still a 400-style entry
	}})
	if rr.Code != http.StatusOK {
		t.Fatalf("status %d", rr.Code)
	}
	var out batchResponse
	if err := json.Unmarshal(rr.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if !out.Responses[0].Degraded || len(out.Responses[0].Items) == 0 {
		t.Fatalf("entry 0 = %+v, want degraded items", out.Responses[0])
	}
	if out.Responses[1].Error == "" {
		t.Fatal("entry 1 should carry an error")
	}
}

// TestLoadShedding saturates a 1-slot server with stalled requests and
// expects 429 + Retry-After for the overflow, then normal service after
// the stall clears.
func TestLoadShedding(t *testing.T) {
	faultinject.Reset()
	defer faultinject.Reset()
	srv, history := faultServer(t, serverOptions{maxInFlight: 1, reqTimeout: 2 * time.Second})
	h := srv.routes()
	faultinject.Arm("server.score", faultinject.Plan{Mode: faultinject.Delay, Sleep: 150 * time.Millisecond})

	const clients = 6
	codes := make([]int, clients)
	retryAfter := make([]string, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rr := postJSON(t, h, "/recommend", recommendRequest{User: 0, History: history, N: 3})
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
	rr := postJSON(t, h, "/recommend", recommendRequest{User: 0, History: history, N: 3})
	if rr.Code != http.StatusOK {
		t.Fatalf("post-saturation status %d", rr.Code)
	}
}

// TestGracefulShutdownDrain runs a real http.Server, parks a slow request
// in flight, and verifies Shutdown waits for it to complete successfully.
func TestGracefulShutdownDrain(t *testing.T) {
	faultinject.Reset()
	defer faultinject.Reset()
	srv, history := faultServer(t, serverOptions{reqTimeout: 2 * time.Second})
	faultinject.Arm("server.score", faultinject.Plan{Mode: faultinject.Delay, Sleep: 300 * time.Millisecond, Count: 1})

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	httpSrv := &http.Server{Handler: srv.routes()}
	go httpSrv.Serve(ln)

	url := fmt.Sprintf("http://%s/recommend", ln.Addr())
	type result struct {
		code int
		err  error
	}
	done := make(chan result, 1)
	go func() {
		raw, _ := json.Marshal(recommendRequest{User: 0, History: history, N: 3})
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
	base, seqs := testServer(t)
	m := base.currentModel()
	dir := t.TempDir()
	path := filepath.Join(dir, "model.tsppr")
	if err := m.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	srv := newServer(m, serverOptions{modelPath: path, windowCap: 20, defaultOmega: 3})
	h := srv.routes()
	history := make([]int, 0, 40)
	for _, v := range seqs[0][:40] {
		history = append(history, int(v))
	}
	serve := func() int {
		return postJSON(t, h, "/recommend", recommendRequest{User: 0, History: history, N: 3}).Code
	}
	if serve() != http.StatusOK {
		t.Fatal("baseline request failed")
	}

	// Deliver a real SIGHUP value through the watch loop.
	sig := make(chan os.Signal, 1)
	go srv.watchReload(sig)
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
}

// TestHotReloadRejectsHostileShapeHeader: a model file damaged into a
// header that claims the largest shape the range checks admit (2²⁸ users
// × 2²⁰ factors) and then ends used to size its tables from the claim —
// a makeslice panic (or an OOM kill) inside the SIGHUP handler, whose
// contract is validate-then-swap. The loader now allocates by bytes
// read, so this is one more rejected reload.
func TestHotReloadRejectsHostileShapeHeader(t *testing.T) {
	faultinject.Reset()
	base, seqs := testServer(t)
	m := base.currentModel()
	path := filepath.Join(t.TempDir(), "model.tsppr")
	if err := m.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	srv := newServer(m, serverOptions{modelPath: path, windowCap: 20, defaultOmega: 3})
	h := srv.routes()
	history := make([]int, 0, 40)
	for _, v := range seqs[0][:40] {
		history = append(history, int(v))
	}
	blob := []byte("TSPPRv2\n")
	for _, v := range []uint64{1 << 20, 4, 0, 1 << 28, 1 << 28} { // K, F, per-user maps, users, items
		blob = binary.LittleEndian.AppendUint64(blob, v)
	}
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := srv.reload(); err == nil {
		t.Fatal("reload accepted a header-only model file")
	}
	if srv.currentModel() != m || srv.reloads.Value() != 0 {
		t.Fatal("rejected reload displaced the serving model")
	}
	if code := postJSON(t, h, "/recommend", recommendRequest{User: 0, History: history, N: 3}).Code; code != http.StatusOK {
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
	base, seqs := testServer(t)
	m := base.currentModel()
	path := filepath.Join(t.TempDir(), "model.tsppr")
	if err := m.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	srv := newServer(m, serverOptions{modelPath: path, windowCap: 20, defaultOmega: 3})
	h := srv.routes()
	history := make([]int, 0, 40)
	for _, v := range seqs[0][:40] {
		history = append(history, int(v))
	}
	serve := func() string {
		t.Helper()
		rr := postJSON(t, h, "/recommend", recommendRequest{User: 0, History: history, N: 5})
		if rr.Code != http.StatusOK {
			t.Fatalf("/recommend: %d %s", rr.Code, rr.Body.String())
		}
		return rr.Body.String()
	}
	before, fullBytes := serve(), srv.modelBytes.Value()
	if err := srv.reload(); err != nil {
		t.Fatal(err)
	}
	folded := srv.currentModel()
	if folded == m || folded.A != nil {
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
	srv, _ := faultServer(t, serverOptions{})
	h := srv.recovered(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic("handler bug")
	}))
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/recommend", nil))
	if rr.Code != http.StatusInternalServerError {
		t.Fatalf("status %d", rr.Code)
	}
	if srv.panics.Value() != 1 {
		t.Fatal("panic not counted")
	}
}

// TestRequestEntityTooLarge checks the 413 satellite: an oversized body
// is distinguished from a malformed one.
func TestRequestEntityTooLarge(t *testing.T) {
	srv, _ := faultServer(t, serverOptions{})
	h := srv.routes()
	// ~8 MB of JSON zeros, comfortably past the 4 MB body cap.
	big := make([]int, 1<<22)
	rr := postJSON(t, h, "/recommend", recommendRequest{User: 0, History: big})
	if rr.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413", rr.Code)
	}
}

// TestHistoryIDBounds checks the 400 satellite: item ids at or above the
// model's item universe are rejected up front.
func TestHistoryIDBounds(t *testing.T) {
	srv, history := faultServer(t, serverOptions{})
	h := srv.routes()
	bad := append(append([]int(nil), history...), srv.currentModel().NumItems())
	rr := postJSON(t, h, "/recommend", recommendRequest{User: 0, History: bad})
	if rr.Code != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", rr.Code)
	}
}
