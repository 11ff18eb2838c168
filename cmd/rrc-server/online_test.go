package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"tsppr/internal/seq"
	"tsppr/internal/wal"
)

// onlineServer is testServer plus a durable online-session layer rooted
// in dir. mutate tweaks the options before the event log is opened.
func onlineServer(t *testing.T, dir string, mutate func(*serverOptions)) (*server, []seq.Sequence) {
	t.Helper()
	srv, seqs := testServer(t)
	srv.opts.eventsDir = dir
	srv.opts.fsync = wal.SyncAlways
	srv.opts.snapshotEvery = 0 // tests trigger snapshots explicitly
	if mutate != nil {
		mutate(&srv.opts)
	}
	o, err := newOnline(srv.opts, srv.currentModel())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { o.close() })
	srv.online = o
	return srv, seqs
}

func TestConsumeThenRecommendUser(t *testing.T) {
	srv, seqs := onlineServer(t, t.TempDir(), nil)
	h := srv.routes()
	consumed := map[int]bool{}
	for i, v := range seqs[0][:30] {
		rr := postJSON(t, h, "/consume", consumeRequest{User: 0, Item: int(v)})
		if rr.Code != http.StatusOK {
			t.Fatalf("consume %d: status %d: %s", i, rr.Code, rr.Body.String())
		}
		var ack consumeResponse
		if err := json.Unmarshal(rr.Body.Bytes(), &ack); err != nil {
			t.Fatal(err)
		}
		if ack.LSN != uint64(i+1) {
			t.Fatalf("consume %d: lsn %d", i, ack.LSN)
		}
		consumed[int(v)] = true
	}
	rr := postJSON(t, h, "/recommend/user", recommendUserRequest{User: 0, N: 5})
	if rr.Code != http.StatusOK {
		t.Fatalf("recommend/user status %d: %s", rr.Code, rr.Body.String())
	}
	var resp recommendResponse
	if err := json.Unmarshal(rr.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Items) == 0 || len(resp.Items) > 5 {
		t.Fatalf("items = %v", resp.Items)
	}
	for i, it := range resp.Items {
		if !consumed[it] {
			t.Fatalf("recommended %d was never consumed", it)
		}
		if i > 0 && resp.Scores[i] > resp.Scores[i-1] {
			t.Fatalf("scores not descending: %v", resp.Scores)
		}
	}
}

func TestRecommendUserWithoutSessionIs404(t *testing.T) {
	srv, _ := onlineServer(t, t.TempDir(), nil)
	rr := postJSON(t, srv.routes(), "/recommend/user", recommendUserRequest{User: 2, N: 5})
	if rr.Code != http.StatusNotFound {
		t.Fatalf("status %d: %s", rr.Code, rr.Body.String())
	}
}

func TestOnlineEndpointValidation(t *testing.T) {
	srv, _ := onlineServer(t, t.TempDir(), nil)
	h := srv.routes()
	m := srv.currentModel()
	badOmega := srv.opts.windowCap
	for i, tc := range []struct {
		path string
		body any
	}{
		{"/consume", consumeRequest{User: -1, Item: 0}},
		{"/consume", consumeRequest{User: m.NumUsers(), Item: 0}},
		{"/consume", consumeRequest{User: 0, Item: -1}},
		{"/consume", consumeRequest{User: 0, Item: m.NumItems()}},
		{"/recommend/user", recommendUserRequest{User: -1}},
		{"/recommend/user", recommendUserRequest{User: m.NumUsers()}},
		{"/recommend/user", recommendUserRequest{User: 0, Omega: &badOmega}},
	} {
		if rr := postJSON(t, h, tc.path, tc.body); rr.Code != http.StatusBadRequest {
			t.Errorf("case %d (%s): status %d: %s", i, tc.path, rr.Code, rr.Body.String())
		}
	}
}

// A replica without -events-dir answers the online endpoints 503 +
// Retry-After, not 404: the endpoints exist, and a retrying client in a
// mixed fleet must not conclude the API is gone.
func TestOnlineEndpointsDisabledWithoutEventsDir(t *testing.T) {
	srv, _ := testServer(t)
	h := srv.routes()
	for _, path := range []string{"/consume", "/recommend/user"} {
		rr := postJSON(t, h, path, map[string]int{"user": 0})
		if rr.Code != http.StatusServiceUnavailable {
			t.Fatalf("%s: status %d, want 503", path, rr.Code)
		}
		if rr.Header().Get("Retry-After") == "" {
			t.Fatalf("%s: no Retry-After header", path)
		}
		var body map[string]string
		if err := json.Unmarshal(rr.Body.Bytes(), &body); err != nil {
			t.Fatal(err)
		}
		if body["error"] == "" {
			t.Fatalf("%s: no error message", path)
		}
	}
}

func TestStatsReportsOnlineCounters(t *testing.T) {
	srv, seqs := onlineServer(t, t.TempDir(), nil)
	h := srv.routes()
	for _, v := range seqs[1][:7] {
		postJSON(t, h, "/consume", consumeRequest{User: 1, Item: int(v)})
	}
	srv.online.pool.SnapshotAll()

	shards := srv.online.pool.Statuses()
	if len(shards) != 1 || shards[0].State != "serving" || shards[0].Sessions != 1 || shards[0].AppliedLSN != 7 {
		t.Fatalf("per-shard status %+v", shards)
	}
	if ws := srv.online.pool.WALStats(); ws.Appends != 7 || ws.Fsyncs < 7 || shards[0].Snapshots != 1 {
		t.Fatalf("durability counters %+v, snapshots %d", ws, shards[0].Snapshots)
	}
}

// /readyz reflects shard health: every shard serving → ready; any shard
// out of serving (here: drained through the admin plane) → 503 with the
// per-shard state list naming the culprit.
func TestReadyzGatesOnShardHealth(t *testing.T) {
	srv, _ := onlineServer(t, t.TempDir(), nil)
	h := srv.routes()
	get := func() (int, readyResponse) {
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/readyz", nil))
		var body readyResponse
		if err := json.Unmarshal(rr.Body.Bytes(), &body); err != nil {
			t.Fatal(err)
		}
		return rr.Code, body
	}
	code, body := get()
	if code != http.StatusOK || body.Status != "ready" {
		t.Fatalf("recovered server: %d %+v", code, body)
	}
	if len(body.Shards) != 1 || body.Shards[0] != "serving" {
		t.Fatalf("per-shard readiness: %+v", body.Shards)
	}

	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/admin/drain?shard=0", nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("drain: %d %s", rr.Code, rr.Body.String())
	}
	code, body = get()
	if code != http.StatusServiceUnavailable || body.Status != "recovering" {
		t.Fatalf("drained server: %d %+v", code, body)
	}
	if len(body.Shards) != 1 || body.Shards[0] != "stopped" {
		t.Fatalf("per-shard readiness after drain: %+v", body.Shards)
	}
}

// The single and batch recommend paths share one validation routine; this
// test locks them together: every request that 400s on /recommend must
// produce the identical error message as a per-entry error object on
// /recommend/batch (which itself stays 200).
func TestBatchAndSingleRejectIdentically(t *testing.T) {
	srv, seqs := testServer(t)
	h := srv.routes()
	okHistory := make([]int, 0, 40)
	for _, v := range seqs[0][:40] {
		okHistory = append(okHistory, int(v))
	}
	badOmega := srv.opts.windowCap
	oversize := make([]int, maxHistoryLen+1)
	cases := []recommendRequest{
		{User: 0, History: []int{1, 2, 100_000_000}}, // out-of-range history id
		{User: 0, History: oversize},                 // history over the shared cap
		{User: 0, History: nil},                      // empty history
		{User: -3, History: okHistory},               // bad user
		{User: 0, History: okHistory, Omega: &badOmega},
	}
	for i, req := range cases {
		single := postJSON(t, h, "/recommend", req)
		if single.Code != http.StatusBadRequest {
			t.Fatalf("case %d: single status %d: %s", i, single.Code, single.Body.String())
		}
		var singleErr map[string]string
		if err := json.Unmarshal(single.Body.Bytes(), &singleErr); err != nil {
			t.Fatal(err)
		}
		batch := postJSON(t, h, "/recommend/batch", batchRequest{Requests: []recommendRequest{req}})
		if batch.Code != http.StatusOK {
			t.Fatalf("case %d: batch status %d: %s", i, batch.Code, batch.Body.String())
		}
		var out batchResponse
		if err := json.Unmarshal(batch.Body.Bytes(), &out); err != nil {
			t.Fatal(err)
		}
		if len(out.Responses) != 1 || out.Responses[0].Error == "" {
			t.Fatalf("case %d: batch entry %+v", i, out.Responses)
		}
		if out.Responses[0].Error != singleErr["error"] {
			t.Fatalf("case %d: batch error %q != single error %q", i, out.Responses[0].Error, singleErr["error"])
		}
	}
}
