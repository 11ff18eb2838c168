// Router observability: the rrc_router_* families. Per-node series
// are GaugeFuncs that look the node up by URL at scrape time, so a
// node removed from the topology scrapes as 0 instead of freezing at
// its last value (the obs registry has no unregister).
//
//	rrc_router_node_state{node="..."}   0 unreachable · 1 reachable
//	                                    · 2 ready · 3 fenced
//	rrc_router_node_epoch{node="..."}   last probed replication epoch
//	rrc_router_node_lag_records{node=}  last probed follower lag
//	rrc_router_failovers_total          promotions this router drove
//	rrc_router_retries_total            upstream re-attempts
//	rrc_router_shed_total               requests answered 503 locally
//	rrc_router_misdirects_total         421 ownership refusals folded
//	rrc_router_upstream_dials_total     upstream connections dialed
//	rrc_router_requests_total{endpoint=} / errors_total / request_seconds
package router

import (
	"fmt"
	"net/http"
	"time"

	"tsppr/internal/obs"
)

// Node-state gauge values, least to most healthy (fenced sorts last
// because a fenced node is categorically out of rotation).
const (
	nodeStateUnreachable = 0
	nodeStateReachable   = 1
	nodeStateReady       = 2
	nodeStateFenced      = 3
)

func (rt *Router) initMetrics() {
	rt.failovers = rt.counterHelp("rrc_router_failovers_total",
		"Promotions this router has driven via POST /admin/promote.")
	rt.retries = rt.counterHelp("rrc_router_retries_total",
		"Upstream re-attempts (beyond each request's first try).")
	rt.shed = rt.counterHelp("rrc_router_shed_total",
		"Requests the router answered 503 locally (no backend, budget, or deadline).")
	rt.misdirects = rt.counterHelp("rrc_router_misdirects_total",
		"421 responses folded: a node refused a key the topology routed to it (cross-partition misconfiguration).")
	rt.dials = rt.counterHelp("rrc_router_upstream_dials_total",
		"Upstream connections dialed; requests otherwise reuse a pooled keep-alive connection.")
	if rt.reg != nil {
		rt.reg.Help("rrc_router_node_state",
			"Probed node state: 0 unreachable, 1 reachable, 2 ready, 3 fenced.")
		rt.reg.Help("rrc_router_node_epoch", "Last probed replication epoch per node.")
		rt.reg.Help("rrc_router_node_lag_records", "Last probed follower record lag per node.")
		rt.reg.Help("rrc_router_requests_total", "Requests through the router per endpoint.")
		rt.reg.Help("rrc_router_errors_total", "Router responses with status >= 400 per endpoint.")
		rt.reg.Help("rrc_router_request_seconds", "Router end-to-end request latency per endpoint.")
	}
}

func (rt *Router) counterHelp(name, help string) *obs.Counter {
	if rt.reg == nil {
		return obs.NewRegistry().Counter(name) // detached no-op-ish handle
	}
	rt.reg.Help(name, help)
	return rt.reg.Counter(name)
}

// registerNodeGauges installs the per-node GaugeFuncs for a URL newly
// added to the topology. Must be called WITHOUT rt.mu held: it takes
// the registry lock, and the closures take rt.mu under the registry
// lock at scrape time — holding rt.mu here would invert that order and
// deadlock against a concurrent /metrics scrape. The closures re-lookup
// the node at scrape time, so they survive the node being dropped and
// re-added.
func (rt *Router) registerNodeGauges(url string) {
	if rt.reg == nil {
		return
	}
	lookup := func() (nodeView, bool) {
		rt.mu.Lock()
		n, ok := rt.byURL[url]
		rt.mu.Unlock()
		if !ok {
			return nodeView{}, false
		}
		return n.view(), true
	}
	rt.reg.GaugeFunc(fmt.Sprintf("rrc_router_node_state{node=%q}", url), func() float64 {
		v, ok := lookup()
		switch {
		case !ok || !v.Reachable:
			return nodeStateUnreachable
		case v.Fenced:
			return nodeStateFenced
		case v.Ready:
			return nodeStateReady
		default:
			return nodeStateReachable
		}
	})
	rt.reg.GaugeFunc(fmt.Sprintf("rrc_router_node_epoch{node=%q}", url), func() float64 {
		v, _ := lookup()
		return float64(v.Epoch)
	})
	rt.reg.GaugeFunc(fmt.Sprintf("rrc_router_node_lag_records{node=%q}", url), func() float64 {
		v, _ := lookup()
		return float64(v.LagRecords)
	})
}

// endpointMetrics is the per-endpoint instrument set, minted once per
// proxied endpoint at Routes() time (handle mint takes a registry
// lock; the request path must not).
type endpointMetrics struct {
	requests *obs.Counter
	errors   *obs.Counter
	latency  *obs.Histogram
}

func (rt *Router) endpointMetrics(endpoint string) endpointMetrics {
	reg := rt.reg
	if reg == nil {
		reg = obs.NewRegistry()
	}
	return endpointMetrics{
		requests: reg.Counter(fmt.Sprintf("rrc_router_requests_total{endpoint=%q}", endpoint)),
		errors:   reg.Counter(fmt.Sprintf("rrc_router_errors_total{endpoint=%q}", endpoint)),
		latency:  reg.Histogram(fmt.Sprintf("rrc_router_request_seconds{endpoint=%q}", endpoint), obs.LatencyBuckets),
	}
}

func (m endpointMetrics) observe(code int, start time.Time) {
	m.requests.Inc()
	if code >= http.StatusBadRequest {
		m.errors.Inc()
	}
	m.latency.Observe(time.Since(start).Seconds())
}
