package serve

// Retry-After consistency audit: every backoff-shaped response the
// server emits (429 load shed, shard breaker/drain 503, online-disabled
// 503, replication write refusals, /readyz 503, and the fenced-ingest
// 412 path) must carry a Retry-After header a client — in particular
// rrc-router's retry loop — can schedule on; so must a standby's read of
// a session it has not replicated yet. Plus the deadline
// propagation satellite: X-RRC-Deadline-Ms lowers (never raises) the
// per-request deadline harden installs.

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"tsppr/internal/httpserve/httpservetest"
	"tsppr/internal/replica"
	"tsppr/internal/router"
)

// assertRetryAfter fails unless rr carries a positive integer
// Retry-After.
func assertRetryAfter(t *testing.T, rr *httptest.ResponseRecorder, path string) {
	t.Helper()
	raw := rr.Result().Header.Get("Retry-After")
	if raw == "" {
		t.Fatalf("%s: status %d without Retry-After: %s", path, rr.Code, rr.Body.String())
	}
	secs, err := strconv.Atoi(raw)
	if err != nil || secs < 1 {
		t.Fatalf("%s: Retry-After %q is not a positive integer of seconds", path, raw)
	}
}

func TestRetryAfterAudit(t *testing.T) {
	base, _ := testServer(t)
	m := base.currentModel()

	// An online single-shard server with shard 0 drained: its users'
	// writes hit the draining/drained 503 path.
	drained := bootOnline(t, m, t.TempDir(), nil)
	if err := drained.pool.Drain(0); err != nil {
		t.Fatalf("drain: %v", err)
	}

	// A fenced/fenceable replication state: meta pinned at epoch 5 so a
	// lower request epoch gets 412 (divergent caller) and a higher one
	// fences this node and also gets 412.
	fencedDir := t.TempDir()
	if err := (replica.Meta{Epoch: 5}).Store(fencedDir); err != nil {
		t.Fatal(err)
	}
	fenced := bootOnline(t, m, fencedDir, nil)

	// A read-only standby of an empty primary.
	primary := bootOnline(t, m, t.TempDir(), nil)
	follower := bootOnline(t, m, t.TempDir(), func(o *Options) { o.FollowURL = httpservetest.Start(t, primary).URL })
	defer follower.Close(0)

	// A saturated server: holding every semaphore slot forces harden's
	// 429 on the next scoring request.
	shed, _ := testServer(t)
	for i := 0; i < cap(shed.sem); i++ {
		shed.sem <- struct{}{}
	}

	cases := []struct {
		name   string
		h      http.Handler
		method string
		path   string
		body   any
		header map[string]string
		want   int
	}{
		{"load-shed", httpservetest.Start(t, shed), http.MethodPost, "/recommend",
			recommendRequest{User: 0, History: []int{1, 2}, N: 1}, nil, http.StatusTooManyRequests},
		{"online-disabled", httpservetest.Start(t, base), http.MethodPost, "/consume",
			consumeRequest{User: 0, Item: 1}, nil, http.StatusServiceUnavailable},
		{"shard-drained", httpservetest.Start(t, drained), http.MethodPost, "/consume",
			consumeRequest{User: 0, Item: 1}, nil, http.StatusServiceUnavailable},
		{"fenced-ingest-low-epoch", httpservetest.Start(t, fenced), http.MethodPost, "/consume",
			consumeRequest{User: 0, Item: 1}, map[string]string{replica.EpochHeader: "3"},
			http.StatusPreconditionFailed},
		{"fenced-ingest-high-epoch", httpservetest.Start(t, fenced), http.MethodPost, "/consume",
			consumeRequest{User: 0, Item: 1}, map[string]string{replica.EpochHeader: "9"},
			http.StatusPreconditionFailed},
		{"standby-write-refused", httpservetest.Start(t, follower), http.MethodPost, "/consume",
			consumeRequest{User: 0, Item: 1}, nil, http.StatusServiceUnavailable},
		{"standby-session-not-replicated", httpservetest.Start(t, follower), http.MethodPost, "/recommend/user",
			recommendUserRequest{User: 0, N: 3}, nil, http.StatusServiceUnavailable},
		{"readyz-shard-drained", httpservetest.Start(t, drained), http.MethodGet, "/readyz",
			nil, nil, http.StatusServiceUnavailable},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var rr *httptest.ResponseRecorder
			if tc.method == http.MethodGet {
				rr = httptest.NewRecorder()
				tc.h.ServeHTTP(rr, httptest.NewRequest(tc.method, tc.path, nil))
			} else {
				rr = postJSONHeaders(t, tc.h, tc.path, tc.body, tc.header)
			}
			if rr.Code != tc.want {
				t.Fatalf("status %d, want %d: %s", rr.Code, tc.want, rr.Body.String())
			}
			assertRetryAfter(t, rr, tc.path)
		})
	}

	// The high-epoch probe above must also have fenced the node.
	if st := fenced.repl.Status(); !st.Fenced {
		t.Fatal("higher-epoch ingest did not fence the node")
	}
}

// postJSONHeaders is postJSON with extra request headers.
func postJSONHeaders(t *testing.T, h http.Handler, path string, body any, headers map[string]string) *httptest.ResponseRecorder {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(raw))
	req.Header.Set("Content-Type", "application/json")
	for k, v := range headers {
		req.Header.Set(k, v)
	}
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	return rr
}

// TestDeadlineHeaderBoundsRequest pins the deadline-propagation
// contract: X-RRC-Deadline-Ms lowers the harden deadline to the
// header's value, and can never raise it past -request-timeout.
func TestDeadlineHeaderBoundsRequest(t *testing.T) {
	srv, _ := testServer(t) // reqTimeout defaults to 2s
	var got time.Duration
	h := srv.harden(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		dl, ok := r.Context().Deadline()
		if !ok {
			t.Error("harden installed no deadline")
		}
		got = time.Until(dl)
		w.WriteHeader(http.StatusOK)
	}))

	cases := []struct {
		name     string
		header   string
		min, max time.Duration
	}{
		{"default", "", 1500 * time.Millisecond, 2 * time.Second},
		{"header-lowers", "50", 0, 50 * time.Millisecond},
		{"header-cannot-raise", "600000", 1500 * time.Millisecond, 2 * time.Second},
		{"malformed-ignored", "soon", 1500 * time.Millisecond, 2 * time.Second},
		{"negative-ignored", "-100", 1500 * time.Millisecond, 2 * time.Second},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req := httptest.NewRequest(http.MethodGet, "/", nil)
			if tc.header != "" {
				req.Header.Set(router.DeadlineHeader, tc.header)
			}
			rr := httptest.NewRecorder()
			h.ServeHTTP(rr, req)
			if rr.Code != http.StatusOK {
				t.Fatalf("status %d", rr.Code)
			}
			if got <= tc.min || got > tc.max {
				t.Fatalf("remaining deadline %v outside (%v, %v]", got, tc.min, tc.max)
			}
		})
	}
}

// TestReplicaFollowerReadsInstrumented locks the satellite contract
// that a standby's read-only /recommend/user traffic flows through the
// same instrument middleware as the primary's — rrc_http_* families
// must not silently miss follower traffic.
func TestReplicaFollowerReadsInstrumented(t *testing.T) {
	base, seqs := testServer(t)
	m := base.currentModel()
	srvA := bootRepl(t, m, t.TempDir(), nil)
	tsA := httpservetest.Start(t, srvA)
	defer tsA.Close()
	defer srvA.Close(0)
	srvB := bootRepl(t, m, t.TempDir(), func(o *Options) { o.FollowURL = tsA.URL })
	defer srvB.Close(0)

	hA, hB := tsA, httpservetest.Start(t, srvB)
	for _, ev := range chaosEvents(seqs)[:10] {
		mustConsume(t, hA, ev)
	}
	waitFor(t, "standby caught up", func() bool { return replStatusOf(srvB).CaughtUp })

	rr := postJSON(t, hB, "/recommend/user", recommendUserRequest{User: 0, N: 3})
	if rr.Code != http.StatusOK && rr.Code != http.StatusServiceUnavailable {
		t.Fatalf("follower /recommend/user status %d: %s", rr.Code, rr.Body.String())
	}

	scrape := httptest.NewRecorder()
	hB.ServeHTTP(scrape, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	want := `rrc_http_requests_total{endpoint="/recommend/user"} 1`
	if !strings.Contains(scrape.Body.String(), want) {
		t.Fatalf("follower /metrics missing %q — follower reads bypass instrument", want)
	}
}
