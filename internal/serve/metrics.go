// Server-side observability: the process-wide metric registry, the
// per-endpoint instrumentation middleware, and the status-capturing
// response writer it needs. GET /metrics serves the registry in
// Prometheus text format.
package serve

import (
	"net/http"
	"time"

	"tsppr/internal/obs"
)

// Metric family names served on GET /metrics. The per-endpoint families
// carry an endpoint label; the rest are process-wide.
const (
	metricRequests = "rrc_http_requests_total"
	metricErrors   = "rrc_http_errors_total"
	metricLatency  = "rrc_http_request_seconds"
)

// initMetrics mints the server's registry and the counter handles the
// hot paths record into. Called once by New, before any handler
// can run.
func (s *Server) initMetrics() {
	reg := obs.NewRegistry()
	s.reg = reg
	reg.GoRuntime()
	reg.Help(metricRequests, "HTTP requests by endpoint (scoring and online endpoints only).")
	reg.Help(metricErrors, "HTTP errors by endpoint: status >= 400, handler panics, and failed batch entries.")
	reg.Help(metricLatency, "HTTP request latency by endpoint.")
	reg.Help("rrc_items_recommended_total", "Items returned across all recommend endpoints.")
	s.items = reg.Counter("rrc_items_recommended_total")
	reg.Help("rrc_panics_total", "Panics absorbed: handler panics answered 500 and batch entries answered \"internal error\".")
	s.panics = reg.Counter("rrc_panics_total")
	reg.Help("rrc_timeouts_total", "Requests whose deadline expired before scoring, answered 503.")
	s.timeouts = reg.Counter("rrc_timeouts_total")
	reg.Help("rrc_shed_total", "Requests rejected with 429 by the concurrency semaphore.")
	s.shed = reg.Counter("rrc_shed_total")
	reg.Help("rrc_reloads_total", "Successful SIGHUP model swaps.")
	s.reloads = reg.Counter("rrc_reloads_total")
	reg.Help("rrc_model_resident_bytes", "Bytes of model tables the serving engine holds, set once per engine swap.")
	s.modelBytes = reg.Gauge("rrc_model_resident_bytes")
	// The batch handler counts each failing entry itself (the whole
	// request stays 200, invisible to the middleware's status check).
	// Same family+labels as the middleware's: one shared series.
	s.batchEntryErrs = reg.Counter(metricErrors + `{endpoint="/recommend/batch"}`)
}

// instrument wraps a handler with the per-endpoint request counter,
// error counter, and latency histogram. It sits INSIDE harden, so shed
// 429s never count as requests, and it does not recover panics — it
// counts the error and lets the panic propagate to recovered, which
// owns the 500 and the panic counter. Probe endpoints (/healthz,
// /readyz, /metrics) are deliberately uninstrumented: request counters
// track scoring traffic, not scrapes.
func (s *Server) instrument(endpoint string, next http.Handler) http.Handler {
	requests := s.reg.Counter(metricRequests + `{endpoint="` + endpoint + `"}`)
	errs := s.reg.Counter(metricErrors + `{endpoint="` + endpoint + `"}`)
	latency := s.reg.Histogram(metricLatency+`{endpoint="`+endpoint+`"}`, obs.LatencyBuckets)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Inc()
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w}
		panicked := true
		defer func() {
			latency.ObserveDuration(time.Since(start))
			if panicked || sw.status >= http.StatusBadRequest {
				errs.Inc()
			}
		}()
		next.ServeHTTP(sw, r)
		panicked = false
	})
}

// statusWriter records the status code a handler writes so instrument
// can classify the request after the fact.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(p)
}
