package serve

import (
	"net/http"
	"strings"
	"testing"
)

func TestConsumeThenRecommendUser(t *testing.T) {
	m, seqs := trained(t, 8)
	srv := newNode(t, m, "")
	consumed := map[int]bool{}
	for i, v := range seqs[0][:30] {
		rr := expect(t, http.StatusOK, srv, "POST /consume", consumeRequest{User: 0, Item: int(v)})
		if ack := decodeAs[consumeResponse](t, rr.Body.Bytes()); ack.LSN != uint64(i+1) {
			t.Fatalf("consume %d: lsn %d", i, ack.LSN)
		}
		consumed[int(v)] = true
	}
	rr := expect(t, http.StatusOK, srv, "POST /recommend/user", recommendUserRequest{User: 0, N: 5})
	resp := decodeAs[recommendResponse](t, rr.Body.Bytes())
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
	m, _ := trained(t, 8)
	expect(t, http.StatusNotFound, newNode(t, m, ""), "POST /recommend/user", recommendUserRequest{User: 2, N: 5})
}

func TestOnlineEndpointValidation(t *testing.T) {
	m, _ := trained(t, 8)
	srv := newNode(t, m, "")
	badOmega := m.Extractor.WindowCap()
	for i, tc := range []struct {
		path string
		body any
	}{
		{"POST /consume", consumeRequest{User: -1, Item: 0}},
		{"POST /consume", consumeRequest{User: m.NumUsers(), Item: 0}},
		{"POST /consume", consumeRequest{User: 0, Item: -1}},
		{"POST /consume", consumeRequest{User: 0, Item: m.NumItems()}},
		{"POST /recommend/user", recommendUserRequest{User: -1}},
		{"POST /recommend/user", recommendUserRequest{User: m.NumUsers()}},
		{"POST /recommend/user", recommendUserRequest{User: 0, Omega: &badOmega}},
	} {
		if rr := send(srv, tc.path, tc.body); rr.Code != http.StatusBadRequest {
			t.Errorf("case %d (%s): status %d: %s", i, tc.path, rr.Code, rr.Body.String())
		}
	}
}

func TestStatsReportsOnlineCounters(t *testing.T) {
	m, seqs := trained(t, 8)
	srv := newNode(t, m, "")
	for _, v := range seqs[1][:7] {
		send(srv, "POST /consume", consumeRequest{User: 1, Item: int(v)})
	}
	srv.pool.SnapshotAll()

	shards := srv.pool.Statuses()
	if len(shards) != 1 || shards[0].State != "serving" || shards[0].Sessions != 1 || shards[0].AppliedLSN != 7 {
		t.Fatalf("per-shard status %+v", shards)
	}
	if ws := srv.pool.WALStats(); ws.Appends != 7 || ws.Fsyncs < 7 || shards[0].Snapshots != 1 {
		t.Fatalf("durability counters %+v, snapshots %d", ws, shards[0].Snapshots)
	}
}

// /readyz reflects shard health: every shard serving → ready; any shard
// out of serving (here: drained through the admin plane) → 503 with the
// per-shard state list naming the culprit.
func TestReadyzGatesOnShardHealth(t *testing.T) {
	m, _ := trained(t, 8)
	srv := newNode(t, m, "")
	get := func() (int, readyResponse) {
		rr := send(srv, "GET /readyz", nil)
		return rr.Code, decodeAs[readyResponse](t, rr.Body.Bytes())
	}
	code, body := get()
	if code != http.StatusOK || body.Status != "ready" {
		t.Fatalf("recovered server: %d %+v", code, body)
	}
	if len(body.Shards) != 1 || body.Shards[0] != "serving" {
		t.Fatalf("per-shard readiness: %+v", body.Shards)
	}

	expect(t, http.StatusOK, srv, "POST /admin/drain?shard=0", nil)
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
// /recommend/batch (which itself stays 200). Every history id is
// range-checked, not only the |W| that reach the window: an out-of-range
// id at history[0] of a 3·|W| history is named by both.
func TestBatchAndSingleRejectIdentically(t *testing.T) {
	m, seqs := trained(t, 8)
	srv := newNode(t, m, "")
	okHistory := ints(seqs[0][:40])
	capW := m.Extractor.WindowCap()
	badOmega := capW
	oversize := make([]int, maxHistoryLen+1)
	badHead := append([]int{100_000_000}, ints(seqs[0][1:3*capW])...)
	cases := []struct {
		req  recommendRequest
		want string // error prefix
	}{
		{recommendRequest{User: 0, History: []int{1, 2, 100_000_000}}, "history[2] = 100000000 out of range"},
		{recommendRequest{User: 0, History: badHead}, "history[0] = 100000000 out of range"},
		{recommendRequest{User: 0, History: oversize}, "history length"},
		{recommendRequest{User: 0, History: nil}, "history is empty"},
		{recommendRequest{User: -3, History: okHistory}, "user -3 out of range"},
		{recommendRequest{User: 0, History: okHistory, Omega: &badOmega}, "omega 20 out of"},
	}
	for i, c := range cases {
		req := c.req
		single := expect(t, http.StatusBadRequest, srv, "POST /recommend", req)
		singleErr := decodeAs[map[string]string](t, single.Body.Bytes())
		batch := expect(t, http.StatusOK, srv, "POST /recommend/batch", batchRequest{Requests: []recommendRequest{req}})
		out := decodeAs[batchResponse](t, batch.Body.Bytes())
		if len(out.Responses) != 1 || out.Responses[0].Error == "" {
			t.Fatalf("case %d: batch entry %+v", i, out.Responses)
		}
		if out.Responses[0].Error != singleErr["error"] {
			t.Fatalf("case %d: batch error %q != single error %q", i, out.Responses[0].Error, singleErr["error"])
		}
		if !strings.HasPrefix(singleErr["error"], c.want) {
			t.Fatalf("case %d: error %q, want prefix %q", i, singleErr["error"], c.want)
		}
	}
}
