package serve

import (
	"context"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestHealthz(t *testing.T) {
	m, _ := trained(t, 8)
	rr := expect(t, http.StatusOK, newNode(t, m, ""), "GET /healthz", nil)
	if body := decodeAs[map[string]string](t, rr.Body.Bytes()); body["status"] != "ok" {
		t.Fatalf("body %v", body)
	}
}

func TestRecommendHappyPath(t *testing.T) {
	m, seqs := trained(t, 8)
	history := ints(seqs[0][:40])
	rr := expect(t, http.StatusOK, newNode(t, m, ""), "POST /recommend", recommendRequest{User: 0, History: history, N: 5})
	resp := decodeAs[recommendResponse](t, rr.Body.Bytes())
	if len(resp.Items) == 0 || len(resp.Items) > 5 {
		t.Fatalf("items = %v", resp.Items)
	}
	if len(resp.Scores) != len(resp.Items) {
		t.Fatal("scores/items length mismatch")
	}
	// Scores must be descending (same ordering as the ranking).
	for i := 1; i < len(resp.Scores); i++ {
		if resp.Scores[i] > resp.Scores[i-1] {
			t.Fatalf("scores not descending: %v", resp.Scores)
		}
	}
	// All recommended items must come from the recent history.
	inHistory := map[int]bool{}
	for _, v := range history {
		inHistory[v] = true
	}
	for _, it := range resp.Items {
		if !inHistory[it] {
			t.Fatalf("recommended %d not in history", it)
		}
	}
}

func TestRecommendDefaultsN(t *testing.T) {
	m, seqs := trained(t, 8)
	resp, err := newNode(t, m, "").recommend(context.Background(), recommendRequest{User: 0, History: ints(seqs[0][:40])})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Items) > 10 {
		t.Fatalf("default N should cap at 10, got %d", len(resp.Items))
	}
}

func TestRecommendErrors(t *testing.T) {
	m, seqs := trained(t, 8)
	srv := newNode(t, m, "")
	history := ints(seqs[0][:40])
	badOmega := 25
	cases := []recommendRequest{
		{User: -1, History: history},
		{User: 10_000, History: history},
		{User: 0, History: nil},
		{User: 0, History: []int{-5}},
		{User: 0, History: history, Omega: &badOmega},
	}
	for i, req := range cases {
		if rr := send(srv, "POST /recommend", req); rr.Code != http.StatusBadRequest {
			t.Errorf("case %d: status %d", i, rr.Code)
		}
	}
}

func TestRecommendRejectsMalformedJSON(t *testing.T) {
	m, _ := trained(t, 8)
	srv := newNode(t, m, "")
	expect(t, http.StatusBadRequest, srv, "POST /recommend", []byte("{nope"))
	// Unknown fields are also rejected.
	expect(t, http.StatusBadRequest, srv, "POST /recommend", map[string]any{"user": 0, "bogus": 1})
}

func TestRecommendMethodNotAllowed(t *testing.T) {
	m, _ := trained(t, 8)
	expect(t, http.StatusMethodNotAllowed, newNode(t, m, ""), "GET /recommend", nil)
}

func TestStatsEndpoint(t *testing.T) {
	m, seqs := trained(t, 8)
	srv := newNode(t, m, "")
	// Fire one good and one bad request, then read the counters.
	history := ints(seqs[0][:40])
	send(srv, "POST /recommend", recommendRequest{User: 0, History: history, N: 3})
	send(srv, "POST /recommend", recommendRequest{User: -1, History: history})

	if req, errs := srv.reg.SumCounters(metricRequests), srv.reg.SumCounters(metricErrors); req != 2 || errs != 1 {
		t.Fatalf("requests=%d errors=%d, want 2 and 1", req, errs)
	}
	if srv.items.Value() == 0 {
		t.Fatal("rrc_items_recommended_total stayed 0 after a served request")
	}
}

// TestRemovedSurfaceFailsLoudly: GET /stats was a second status body
// over the /metrics counters; it is gone, not silently empty. A node
// without EventsDir (the retired session-less mode) is refused by New.
// An events root with shard 0's files at its top level (the pre-sharding
// layout, written by an older build) is refused at startup by naming
// shard-000. Its flag half, -window and -omega, is tested in
// cmd/rrc-server.
func TestRemovedSurfaceFailsLoudly(t *testing.T) {
	m, _ := trained(t, 8)
	srv := newNode(t, m, "")
	if code := send(srv, "GET /stats", nil).Code; code != http.StatusNotFound {
		t.Fatalf("GET /stats = %d, want 404", code)
	}
	if _, err := New(srv.currentModel(), Options{}); err == nil || !strings.Contains(err.Error(), "EventsDir") {
		t.Fatalf("New without EventsDir: err = %v, want a refusal naming EventsDir", err)
	}

	const parentRoot = "../shard/testdata/parent-b7db887/root"
	dir := t.TempDir()
	entries, err := os.ReadDir(parentRoot)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(parentRoot, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// The root was written at |W| = 8 and the model has 20, but the layout
	// check refuses it before any snapshot is read.
	opts := srv.opts
	opts.EventsDir = dir
	if _, err := New(srv.currentModel(), opts); err == nil || !strings.Contains(err.Error(), "shard-000") {
		t.Fatalf("pre-sharding events root: err = %v, want a refusal naming shard-000", err)
	}
}

func TestBatchEndpoint(t *testing.T) {
	m, seqs := trained(t, 8)
	history := ints(seqs[0][:40])
	body := batchRequest{Requests: []recommendRequest{
		{User: 0, History: history, N: 3},
		{User: -5, History: history}, // per-entry error
		{User: 1, History: history, N: 2},
	}}
	rr := expect(t, http.StatusOK, newNode(t, m, ""), "POST /recommend/batch", body)
	out := decodeAs[batchResponse](t, rr.Body.Bytes())
	if len(out.Responses) != 3 {
		t.Fatalf("responses = %d", len(out.Responses))
	}
	if out.Responses[0].Error != "" || len(out.Responses[0].Items) == 0 {
		t.Fatalf("entry 0 = %+v", out.Responses[0])
	}
	if out.Responses[1].Error == "" {
		t.Fatal("entry 1 should carry an error")
	}
	if out.Responses[2].Error != "" || len(out.Responses[2].Items) == 0 {
		t.Fatalf("entry 2 = %+v", out.Responses[2])
	}
}

func TestBatchLimits(t *testing.T) {
	m, _ := trained(t, 8)
	srv := newNode(t, m, "")
	// Empty batch rejected.
	expect(t, http.StatusBadRequest, srv, "POST /recommend/batch", batchRequest{})
	// Oversized batch rejected.
	big := batchRequest{Requests: make([]recommendRequest, maxBatch+1)}
	expect(t, http.StatusBadRequest, srv, "POST /recommend/batch", big)
}
