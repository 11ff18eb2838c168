package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"tsppr/internal/obs"
)

// TestMetricsEndpoint drives real traffic and checks GET /metrics serves
// a parseable Prometheus exposition covering the server and engine
// families, with the per-endpoint counters agreeing with the traffic.
func TestMetricsEndpoint(t *testing.T) {
	srv, seqs := testServer(t)
	h := srv
	history := make([]int, 0, 40)
	for _, v := range seqs[0][:40] {
		history = append(history, int(v))
	}
	if rr := postJSON(t, h, "/recommend", recommendRequest{User: 0, History: history, N: 5}); rr.Code != http.StatusOK {
		t.Fatalf("good request: %d", rr.Code)
	}
	if rr := postJSON(t, h, "/recommend", recommendRequest{User: -1, History: history}); rr.Code != http.StatusBadRequest {
		t.Fatalf("bad request: %d", rr.Code)
	}

	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("GET /metrics: %d", rr.Code)
	}
	if ct := rr.Header().Get("Content-Type"); ct != obs.ContentType {
		t.Fatalf("content type %q", ct)
	}
	body := rr.Body.String()
	for _, want := range []string{
		`rrc_http_requests_total{endpoint="/recommend"} 2`,
		`rrc_http_errors_total{endpoint="/recommend"} 1`,
		`rrc_http_request_seconds_count{endpoint="/recommend"} 2`,
		"rrc_engine_recommend_seconds_count 1",
		"rrc_engine_candidates_count 1",
		"rrc_items_recommended_total",
		fmt.Sprintf("rrc_model_resident_bytes %d\n", srv.currentModel().ResidentBytes()),
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	if err := obs.ValidateExposition(strings.NewReader(body)); err != nil {
		t.Fatalf("exposition does not parse: %v\n%s", err, body)
	}
}

// TestBatchErrorAccounting pins the /recommend/batch error-counting
// discipline: k failing entries increment the error counter exactly k
// times (never double-counted by the middleware, whose status check sees
// 200), whole-request failures count exactly once, and partial failures
// still return the successful entries.
func TestBatchErrorAccounting(t *testing.T) {
	srv, seqs := testServer(t)
	h := srv
	history := make([]int, 0, 40)
	for _, v := range seqs[0][:40] {
		history = append(history, int(v))
	}
	good := recommendRequest{User: 0, History: history, N: 3}
	badUser := recommendRequest{User: -7, History: history, N: 3}
	noHistory := recommendRequest{User: 1, N: 3}

	cases := []struct {
		name       string
		body       any
		wantStatus int
		wantErrs   int64 // error-counter delta
		wantOK     int   // successful entries in the reply (status 200 only)
	}{
		{"all good", batchRequest{Requests: []recommendRequest{good, good, good}}, http.StatusOK, 0, 3},
		{"two of four fail", batchRequest{Requests: []recommendRequest{good, badUser, noHistory, good}}, http.StatusOK, 2, 2},
		{"all fail", batchRequest{Requests: []recommendRequest{badUser, badUser, badUser}}, http.StatusOK, 3, 0},
		{"empty batch", batchRequest{}, http.StatusBadRequest, 1, 0},
		{"oversized batch", batchRequest{Requests: make([]recommendRequest, maxBatch+1)}, http.StatusBadRequest, 1, 0},
		{"malformed json", json.RawMessage(`{"requests": [{"user": "not-an-int"}]}`), http.StatusBadRequest, 1, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			before := srv.reg.SumCounters(metricErrors)
			rr := postJSON(t, h, "/recommend/batch", tc.body)
			if rr.Code != tc.wantStatus {
				t.Fatalf("status %d, want %d: %s", rr.Code, tc.wantStatus, rr.Body.String())
			}
			if got := srv.reg.SumCounters(metricErrors) - before; got != tc.wantErrs {
				t.Fatalf("error counter advanced by %d, want %d", got, tc.wantErrs)
			}
			if tc.wantStatus != http.StatusOK {
				return
			}
			var resp batchResponse
			if err := json.Unmarshal(rr.Body.Bytes(), &resp); err != nil {
				t.Fatal(err)
			}
			ok := 0
			for _, e := range resp.Responses {
				if e.Error == "" {
					if len(e.Items) == 0 {
						t.Fatal("successful entry has no items")
					}
					ok++
				}
			}
			if ok != tc.wantOK {
				t.Fatalf("%d successful entries, want %d", ok, tc.wantOK)
			}
		})
	}
}

// TestInstrumentCountsPanicsAsErrors checks the middleware/recovered
// split: a handler panic is one error (counted by instrument) and one
// panic (counted by recovered), and the client still gets a 500.
func TestInstrumentCountsPanicsAsErrors(t *testing.T) {
	srv, _ := testServer(t)
	boom := srv.instrument("/boom", http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic("kaboom")
	}))
	h := srv.recovered(boom)
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/boom", strings.NewReader("{}")))
	if rr.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", rr.Code)
	}
	if got := srv.reg.Counter(fmt.Sprintf("%s{endpoint=%q}", metricErrors, "/boom")).Value(); got != 1 {
		t.Fatalf("panic counted as %d errors, want 1", got)
	}
	if srv.panics.Value() != 1 {
		t.Fatalf("panics = %d, want 1", srv.panics.Value())
	}
}
