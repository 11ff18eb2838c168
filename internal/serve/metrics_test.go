package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"tsppr/internal/obs"
)

// TestMetricsEndpoint drives real traffic and checks GET /metrics serves
// a parseable Prometheus exposition covering the server and engine
// families, with the per-endpoint counters agreeing with the traffic.
func TestMetricsEndpoint(t *testing.T) {
	m, seqs := trained(t, 8)
	srv := newNode(t, m, "")
	history := ints(seqs[0][:40])
	expect(t, http.StatusOK, srv, "POST /recommend", recommendRequest{User: 0, History: history, N: 5})
	expect(t, http.StatusBadRequest, srv, "POST /recommend", recommendRequest{User: -1, History: history})

	rr := expect(t, http.StatusOK, srv, "GET /metrics", nil)
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
	m, seqs := trained(t, 8)
	srv := newNode(t, m, "")
	history := ints(seqs[0][:40])
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
			rr := send(srv, "POST /recommend/batch", tc.body)
			if rr.Code != tc.wantStatus {
				t.Fatalf("status %d, want %d: %s", rr.Code, tc.wantStatus, rr.Body.String())
			}
			if got := srv.reg.SumCounters(metricErrors) - before; got != tc.wantErrs {
				t.Fatalf("error counter advanced by %d, want %d", got, tc.wantErrs)
			}
			if tc.wantStatus != http.StatusOK {
				return
			}
			ok := 0
			for _, e := range decodeAs[batchResponse](t, rr.Body.Bytes()).Responses {
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
	m, _ := trained(t, 8)
	srv := newNode(t, m, "")
	boom := srv.instrument("/boom", http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic("kaboom")
	}))
	expect(t, http.StatusInternalServerError, srv.recovered(boom), "POST /boom", []byte("{}"))
	if got := srv.reg.Counter(fmt.Sprintf("%s{endpoint=%q}", metricErrors, "/boom")).Value(); got != 1 {
		t.Fatalf("panic counted as %d errors, want 1", got)
	}
	if srv.panics.Value() != 1 {
		t.Fatalf("panics = %d, want 1", srv.panics.Value())
	}
}
