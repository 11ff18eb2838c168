package serve

// Retry-After consistency audit: every backoff-shaped response the
// server emits (429 load shed, shard breaker/drain 503, replication
// write refusals, /readyz 503, and the fenced-ingest 412 path) must carry a Retry-After header a client — in particular
// rrc-router's retry loop — can schedule on; so must a standby's read of
// a session it has not replicated yet. Plus the deadline
// propagation satellite: X-RRC-Deadline-Ms lowers (never raises) the
// per-request deadline harden installs.

import (
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

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
	m, _ := trained(t, 8)

	// An online single-shard server with shard 0 drained: its users'
	// writes hit the draining/drained 503 path.
	drained := newNode(t, m, "")
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
	fenced := newNode(t, m, fencedDir)

	// A read-only standby of an empty primary.
	follower := newNode(t, m, "", follows(newNode(t, m, "")))

	// A saturated server: holding every semaphore slot forces harden's
	// 429 on the next scoring request.
	shed := newNode(t, m, "")
	for i := 0; i < cap(shed.sem); i++ {
		shed.sem <- struct{}{}
	}

	cases := []struct {
		name, target string
		n            *node
		body         any
		header       []string
		want         int
	}{
		{"load-shed", "POST /recommend", shed,
			recommendRequest{User: 0, History: []int{1, 2}, N: 1}, nil, http.StatusTooManyRequests},
		{"shard-drained", "POST /consume", drained,
			consumeRequest{User: 0, Item: 1}, nil, http.StatusServiceUnavailable},
		{"fenced-ingest-low-epoch", "POST /consume", fenced,
			consumeRequest{User: 0, Item: 1}, []string{replica.EpochHeader, "3"}, http.StatusPreconditionFailed},
		{"fenced-ingest-high-epoch", "POST /consume", fenced,
			consumeRequest{User: 0, Item: 1}, []string{replica.EpochHeader, "9"}, http.StatusPreconditionFailed},
		{"standby-write-refused", "POST /consume", follower,
			consumeRequest{User: 0, Item: 1}, nil, http.StatusServiceUnavailable},
		{"standby-session-not-replicated", "POST /recommend/user", follower,
			recommendUserRequest{User: 0, N: 3}, nil, http.StatusServiceUnavailable},
		{"readyz-shard-drained", "GET /readyz", drained, nil, nil, http.StatusServiceUnavailable},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rr := send(tc.n.wire(), tc.target, tc.body, tc.header...)
			if rr.Code != tc.want {
				t.Fatalf("status %d, want %d: %s", rr.Code, tc.want, rr.Body.String())
			}
			assertRetryAfter(t, rr, tc.target)
		})
	}

	// The high-epoch probe above must also have fenced the node.
	if st := fenced.repl.Status(); !st.Fenced {
		t.Fatal("higher-epoch ingest did not fence the node")
	}
}

// TestDeadlineHeaderBoundsRequest pins the deadline-propagation
// contract: X-RRC-Deadline-Ms lowers the harden deadline to the
// header's value, and can never raise it past -request-timeout.
func TestDeadlineHeaderBoundsRequest(t *testing.T) {
	m, _ := trained(t, 8)
	srv := newNode(t, m, "") // reqTimeout defaults to 2s
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
			expect(t, http.StatusOK, h, "GET /", nil, router.DeadlineHeader, tc.header)
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
	m, seqs := trained(t, 8)
	a := newNode(t, m, "", replicated)
	b := newNode(t, m, "", replicated, follows(a))
	mustConsume(t, a.wire(), chaosEvents(seqs)[:10]...)
	waitFor(t, "standby caught up", func() bool { return b.repl.Status().CaughtUp })

	rr := send(b.wire(), "POST /recommend/user", recommendUserRequest{User: 0, N: 3})
	if rr.Code != http.StatusOK && rr.Code != http.StatusServiceUnavailable {
		t.Fatalf("follower /recommend/user status %d: %s", rr.Code, rr.Body.String())
	}

	want := `rrc_http_requests_total{endpoint="/recommend/user"} 1`
	if !strings.Contains(send(b.wire(), "GET /metrics", nil).Body.String(), want) {
		t.Fatalf("follower /metrics missing %q — follower reads bypass instrument", want)
	}
}
