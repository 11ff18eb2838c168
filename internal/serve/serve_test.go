package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tsppr/internal/core"
	"tsppr/internal/datagen"
	"tsppr/internal/features"
	"tsppr/internal/sampling"
	"tsppr/internal/seq"
)

func testServer(t *testing.T) (*Server, []seq.Sequence) {
	t.Helper()
	return testServerUsers(t, 8)
}

// testServerUsers is testServer over a model of the given user count.
func testServerUsers(t *testing.T, users int) (*Server, []seq.Sequence) {
	t.Helper()
	m, seqs := testModel(t, users)
	return mustNew(t, m, Options{}), seqs
}

// mustNew builds a node with New, failing the test on error, and stops
// it with Close when the test ends.
func mustNew(t testing.TB, m *core.Model, opts Options) *Server {
	t.Helper()
	srv, err := New(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close(0) })
	return srv
}

// testModel trains TS-PPR (|W| = 20, Ω = 3) over a generated
// Gowalla-like split of the given user count.
func testModel(t *testing.T, users int) (*core.Model, []seq.Sequence) {
	t.Helper()
	cfg := datagen.GowallaLike(users, 3)
	cfg.MinLen, cfg.MaxLen = 80, 150
	cfg.WindowCap = 20
	ds, err := datagen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	numItems := ds.NumItems()
	b := features.NewBuilder(numItems, 20, 3)
	for _, s := range ds.Seqs {
		b.Add(s)
	}
	ex := b.Build(features.AllFeatures, features.Hyperbolic)
	set, err := sampling.Build(ds.Seqs, ex, sampling.Config{WindowCap: 20, Omega: 3, S: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	m, _, err := core.Train(set, ds.NumUsers(), numItems, ex, core.Config{K: 8, MaxSteps: 10_000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return m, ds.Seqs
}

func postJSON(t *testing.T, h http.Handler, path string, body any) *httptest.ResponseRecorder {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(raw))
	req.Header.Set("Content-Type", "application/json")
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	return rr
}

func TestHealthz(t *testing.T) {
	srv, _ := testServer(t)
	req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
	rr := httptest.NewRecorder()
	srv.ServeHTTP(rr, req)
	if rr.Code != http.StatusOK {
		t.Fatalf("status %d", rr.Code)
	}
	var body map[string]string
	if err := json.Unmarshal(rr.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if body["status"] != "ok" {
		t.Fatalf("body %v", body)
	}
}

func TestRecommendHappyPath(t *testing.T) {
	srv, seqs := testServer(t)
	history := make([]int, 0, 40)
	for _, v := range seqs[0][:40] {
		history = append(history, int(v))
	}
	rr := postJSON(t, srv, "/recommend", recommendRequest{User: 0, History: history, N: 5})
	if rr.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rr.Code, rr.Body.String())
	}
	var resp recommendResponse
	if err := json.Unmarshal(rr.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
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
	srv, seqs := testServer(t)
	history := make([]int, 0, 40)
	for _, v := range seqs[0][:40] {
		history = append(history, int(v))
	}
	resp, err := srv.recommend(context.Background(), recommendRequest{User: 0, History: history})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Items) > 10 {
		t.Fatalf("default N should cap at 10, got %d", len(resp.Items))
	}
}

func TestRecommendErrors(t *testing.T) {
	srv, seqs := testServer(t)
	history := make([]int, 0, 40)
	for _, v := range seqs[0][:40] {
		history = append(history, int(v))
	}
	badOmega := 25
	cases := []recommendRequest{
		{User: -1, History: history},
		{User: 10_000, History: history},
		{User: 0, History: nil},
		{User: 0, History: []int{-5}},
		{User: 0, History: history, Omega: &badOmega},
	}
	for i, req := range cases {
		rr := postJSON(t, srv, "/recommend", req)
		if rr.Code != http.StatusBadRequest {
			t.Errorf("case %d: status %d", i, rr.Code)
		}
	}
}

func TestRecommendRejectsMalformedJSON(t *testing.T) {
	srv, _ := testServer(t)
	req := httptest.NewRequest(http.MethodPost, "/recommend", bytes.NewReader([]byte("{nope")))
	rr := httptest.NewRecorder()
	srv.ServeHTTP(rr, req)
	if rr.Code != http.StatusBadRequest {
		t.Fatalf("status %d", rr.Code)
	}
	// Unknown fields are also rejected.
	rr = postJSON(t, srv, "/recommend", map[string]any{"user": 0, "bogus": 1})
	if rr.Code != http.StatusBadRequest {
		t.Fatalf("unknown field status %d", rr.Code)
	}
}

func TestRecommendMethodNotAllowed(t *testing.T) {
	srv, _ := testServer(t)
	req := httptest.NewRequest(http.MethodGet, "/recommend", nil)
	rr := httptest.NewRecorder()
	srv.ServeHTTP(rr, req)
	if rr.Code != http.StatusMethodNotAllowed {
		t.Fatalf("status %d", rr.Code)
	}
}

func TestStatsEndpoint(t *testing.T) {
	srv, seqs := testServer(t)
	h := srv
	// Fire one good and one bad request, then read the counters.
	history := make([]int, 0, 40)
	for _, v := range seqs[0][:40] {
		history = append(history, int(v))
	}
	postJSON(t, h, "/recommend", recommendRequest{User: 0, History: history, N: 3})
	postJSON(t, h, "/recommend", recommendRequest{User: -1, History: history})

	if req, errs := srv.reg.SumCounters(metricRequests), srv.reg.SumCounters(metricErrors); req != 2 || errs != 1 {
		t.Fatalf("requests=%d errors=%d, want 2 and 1", req, errs)
	}
	if srv.items.Value() == 0 {
		t.Fatal("rrc_items_recommended_total stayed 0 after a served request")
	}
}

// TestRemovedSurfaceFailsLoudly: GET /stats was a second status body
// over the /metrics counters; it is gone, not silently empty. An events
// root with shard 0's files at its top level (the pre-sharding layout,
// written by an older build) is refused at startup by naming shard-000.
// Its flag half, -window and -omega, is tested in cmd/rrc-server.
func TestRemovedSurfaceFailsLoudly(t *testing.T) {
	srv, _ := testServer(t)
	if code := getCode(t, srv, "/stats"); code != http.StatusNotFound {
		t.Fatalf("GET /stats = %d, want 404", code)
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
	srv, seqs := testServer(t)
	h := srv
	history := make([]int, 0, 40)
	for _, v := range seqs[0][:40] {
		history = append(history, int(v))
	}
	body := batchRequest{Requests: []recommendRequest{
		{User: 0, History: history, N: 3},
		{User: -5, History: history}, // per-entry error
		{User: 1, History: history, N: 2},
	}}
	rr := postJSON(t, h, "/recommend/batch", body)
	if rr.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rr.Code, rr.Body.String())
	}
	var out batchResponse
	if err := json.Unmarshal(rr.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
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
	srv, _ := testServer(t)
	h := srv
	// Empty batch rejected.
	rr := postJSON(t, h, "/recommend/batch", batchRequest{})
	if rr.Code != http.StatusBadRequest {
		t.Fatalf("empty batch status %d", rr.Code)
	}
	// Oversized batch rejected.
	big := batchRequest{Requests: make([]recommendRequest, maxBatch+1)}
	rr = postJSON(t, h, "/recommend/batch", big)
	if rr.Code != http.StatusBadRequest {
		t.Fatalf("oversized batch status %d", rr.Code)
	}
}
