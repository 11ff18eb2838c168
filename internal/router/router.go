// Package router implements the stateless epoch-aware front end that
// sits between clients and a fleet of rrc-server replicated pairs. The
// serving layer is stateful (each node owns per-user repeat-consumption
// windows), so which node answers matters: writes must reach the one
// node that can make them durable on the current timeline, and a read
// of a stored window must come from the node that took the user's last
// write. The router turns that placement problem into configuration:
//
//   - Topology comes from a static partition layout or a watched
//     topology file; nodes are added, removed, and repartitioned
//     without restarting the router.
//   - The fleet is P partitions, each a replicated primary/standby
//     pair. Partition i owns exactly the users with
//     shard.UserShard(user, P) == i — the same hash the nodes
//     themselves shard by, so router and storage agree on ownership
//     for every key. One pair is the ordinary value P=1.
//   - Every node is health-probed (GET /readyz + GET /replica/epoch) on
//     a jittered interval. The probe carries the highest epoch the
//     router has seen for that node's partition (X-RRC-Epoch), so a
//     deposed primary fences itself the moment the router looks at it —
//     the existing replication contract, no new protocol. Epochs are
//     per-partition timelines and are never stamped across partitions.
//     A node leaves rotation after ProbeFails missed probes in a row,
//     or at once when a dial is refused.
//   - User-keyed requests (/consume, /recommend/user) parse the user id
//     and route to its owning partition: writes to that partition's
//     highest-epoch unfenced primary, and reads to the same node — a
//     follower answers only when the write target cannot. Stateless
//     reads (/recommend, /recommend/batch) carry their own history and
//     spread across all partitions' nodes.
//   - Failover runs per partition: when a partition has no write target
//     for ProbeFails consecutive probe rounds and AutoPromote is set,
//     the router promotes that partition's most caught-up standby. One
//     partition losing its primary sheds 503s only for its own key
//     range; the rest of the fleet never notices.
//   - A node that answers 421 (it owns a different partition than the
//     topology says) is folded out of rotation immediately, like a 412
//     fence — cross-partition misconfiguration is a loud error and a
//     metric, never silent misrouting.
//   - Requests carry propagated deadlines (X-RRC-Deadline-Ms), bounded
//     retries under one router-wide retry budget (a fully down backend
//     can never amplify client traffic beyond the budget).
//   - Upstream requests run on the goroutine that needs them, over a
//     per-node keep-alive connection pool (upstream.go).
//
// Retry safety: reads are idempotent and retry freely. A write retries
// only when the router can prove the attempt never applied — the
// connection was refused before the request was sent, or the backend
// answered 429/503/412/421 (all "not durable" by contract). A write
// that failed after the request was sent is answered 502 without a
// retry: the outcome is unknown, and replaying it could double-apply
// the event. Idempotency of ambiguous writes belongs to the caller.
package router

import (
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"math"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tsppr/internal/obs"
)

// DeadlineHeader carries the remaining request deadline in integer
// milliseconds. The router stamps it on every proxied request;
// rrc-server bounds its per-request work by min(header, its own
// -request-timeout), so a deadline set at the edge actually bounds
// backend work instead of evaporating at the first hop.
const DeadlineHeader = "X-RRC-Deadline-Ms"

// Config tunes a Router. Zero fields pick the documented defaults.
type Config struct {
	// Partitions is the static topology: Partitions[i] lists partition
	// i's backend base URLs (rrc-router -nodes a,b is {{a, b}}, P=1).
	// Ignored when TopologyPath is set.
	Partitions [][]string
	// TopologyPath names a topology file (see topology.go). The router
	// re-reads it whenever its stamp changes, so nodes are added or
	// repartitioned without a restart.
	TopologyPath string

	ProbeInterval time.Duration // health-probe period (jittered ±20%); 0 → 500ms
	ProbeTimeout  time.Duration // per-probe HTTP timeout; 0 → ProbeInterval
	ProbeFails    int           // missed probes before a node leaves rotation, and rounds without a write target before failover; 0 → 3

	// AutoPromote lets the router drive failover itself: after
	// ProbeFails rounds with no reachable unfenced primary in a
	// partition it POSTs /admin/promote to that partition's standby
	// that has applied the most. Off, the router only follows promotions
	// an operator performs (POST /admin/promote on the standby).
	AutoPromote bool

	Deadline    time.Duration // default client deadline; 0 → 2s
	TryTimeout  time.Duration // per-attempt bound within the deadline; 0 → 1s
	MaxAttempts int           // upstream attempts per request, incl. the first; 0 → 3

	// RetryBudget is the router-wide retry allowance: each incoming
	// request adds this many tokens to one bucket (capped at
	// RetryBurst), and every retry spends one. Under a fully down
	// backend the router's upstream attempts are therefore bounded by
	// requests × (1 + RetryBudget) + RetryBurst, however many clients
	// send them — no retry storms. 0 → 0.1.
	RetryBudget float64
	// RetryBurst caps the bucket's banked retry tokens. 0 → 10.
	RetryBurst float64
	// RetryBackoff is the pause before re-attempting a write (the
	// write target rarely changes faster than a probe round). 0 → 25ms.
	RetryBackoff time.Duration

	// Metrics, when non-nil, receives the rrc_router_* families.
	Metrics *obs.Registry
}

func (c Config) withDefaults() Config {
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 500 * time.Millisecond
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = c.ProbeInterval
	}
	if c.ProbeFails <= 0 {
		c.ProbeFails = 3
	}
	if c.Deadline <= 0 {
		c.Deadline = 2 * time.Second
	}
	if c.TryTimeout <= 0 {
		c.TryTimeout = time.Second
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	if c.RetryBudget <= 0 {
		c.RetryBudget = 0.1
	}
	if c.RetryBurst <= 0 {
		c.RetryBurst = 10
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 25 * time.Millisecond
	}
	return c
}

// partition is one replicated pair (or larger replica set) owning a
// slice of the user-key space.
type partition struct {
	index int
	nodes []*node
	// key is the canonical sorted node-set identity: a partition whose
	// replica set survives a topology change keeps its failover streak.
	key string
	// noTargetStreak counts consecutive probe rounds this partition
	// ended with no reachable unfenced primary — the failover trigger.
	noTargetStreak int
}

func partitionKey(nodes []*node) string {
	urls := make([]string, len(nodes))
	for i, n := range nodes {
		urls[i] = n.url
	}
	sort.Strings(urls)
	return strings.Join(urls, ",")
}

// Router is the front end. It holds no session or per-client state —
// only the probed view of the topology and the router-wide retry
// budget — so any number of routers can run side by side.
type Router struct {
	cfg Config

	mu sync.Mutex
	// parts is the partition layout (len = P); every node belongs to
	// exactly one partition (node.part).
	parts     []*partition
	byURL     map[string]*node
	topoStamp FileStamp // stamp of the last loaded topology file

	budget *retryBudget
	rr     atomic.Uint64 // stateless read rotation

	startOnce sync.Once
	stopOnce  sync.Once
	started   atomic.Bool // Start ran: done will eventually close
	stop      chan struct{}
	done      chan struct{}

	reg        *obs.Registry
	failovers  *obs.Counter
	retries    *obs.Counter
	shed       *obs.Counter
	misdirects *obs.Counter
	dials      *obs.Counter
}

// New builds a Router over cfg. Call Start to run the prober (and the
// topology watcher), Routes for the HTTP handler, Stop to shut down.
func New(cfg Config) (*Router, error) {
	cfg = cfg.withDefaults()
	rt := &Router{
		cfg:    cfg,
		byURL:  map[string]*node{},
		budget: newRetryBudget(cfg.RetryBudget, cfg.RetryBurst),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
		reg:    cfg.Metrics,
	}
	rt.initMetrics()

	topo := Topology{Partitions: cfg.Partitions}
	if cfg.TopologyPath != "" {
		loaded, stamp, err := LoadTopologyFile(cfg.TopologyPath)
		if err != nil {
			return nil, err
		}
		topo, rt.topoStamp = loaded, stamp
	} else if err := topo.Validate(); err != nil {
		return nil, err
	}
	rt.SetTopology(topo)
	return rt, nil
}

// Start probes every node once synchronously (so the router is usable
// the moment it returns) and launches the probe loop. Idempotent.
func (rt *Router) Start() {
	rt.startOnce.Do(func() {
		rt.started.Store(true)
		rt.probeRound()
		go rt.run()
	})
}

// Stop halts the probe loop. Safe to call from multiple goroutines and
// before Start (then it only marks the router stopped — there is no
// loop to wait out, and a later Start exits immediately).
func (rt *Router) Stop() {
	rt.stopOnce.Do(func() { close(rt.stop) })
	if rt.started.Load() {
		<-rt.done
	}
}

// probeDelay is one probe round's sleep: ProbeInterval jittered
// uniformly over ±20%. A fleet of routers started together (or a
// router fleet probing a shared backend) must not synchronize its
// probe bursts; the jitter desynchronizes rounds without changing the
// average probe rate.
func probeDelay(interval time.Duration, rng *rand.Rand) time.Duration {
	return time.Duration(float64(interval) * (0.8 + 0.4*rng.Float64()))
}

func (rt *Router) run() {
	defer close(rt.done)
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	timer := time.NewTimer(probeDelay(rt.cfg.ProbeInterval, rng))
	defer timer.Stop()
	for {
		select {
		case <-rt.stop:
			return
		case <-timer.C:
		}
		rt.reloadTopology()
		rt.probeRound()
		timer.Reset(probeDelay(rt.cfg.ProbeInterval, rng))
	}
}

// SetTopology replaces the partition layout. Known URLs keep their
// probed state; new ones start unprobed; removed ones stop being
// candidates. Per-partition failover streaks survive for partitions
// whose node set is unchanged.
func (rt *Router) SetTopology(t Topology) {
	rt.mu.Lock()
	prevStreak := map[string]int{}
	for _, p := range rt.parts {
		prevStreak[p.key] = p.noTargetStreak
	}
	nextBy := map[string]*node{}
	var added []string
	parts := make([]*partition, 0, len(t.Partitions))
	for i, urls := range t.Partitions {
		p := &partition{index: i}
		for _, u := range urls {
			if _, dup := nextBy[u]; dup {
				continue // Validate refuses these; an unvalidated caller gets first-wins
			}
			n, ok := rt.byURL[u]
			if !ok {
				n = &node{url: u, host: strings.TrimPrefix(u, "http://")}
				added = append(added, u)
			}
			nextBy[u] = n
			n.part = p
			p.nodes = append(p.nodes, n)
		}
		p.key = partitionKey(p.nodes)
		p.noTargetStreak = prevStreak[p.key]
		parts = append(parts, p)
	}
	for u, n := range rt.byURL {
		if nextBy[u] == nil {
			n.part = nil // dropped: an attempt still in flight stamps no epoch
			n.pool.close()
		}
	}
	rt.parts = parts
	rt.byURL = nextBy
	rt.mu.Unlock()

	// Gauge registration takes the registry lock, and the registered
	// closures take rt.mu under the registry lock at scrape time — so
	// registering under rt.mu would order the two locks both ways and
	// deadlock against a concurrent /metrics scrape. Register only
	// after releasing rt.mu; the nodes are already published above, so
	// a scrape racing this loop finds them.
	for _, u := range added {
		rt.registerNodeGauges(u)
	}
}

// P reports the current partition count.
func (rt *Router) P() int {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return len(rt.parts)
}

// Nodes returns the current topology order: every partition's nodes in
// partition order.
func (rt *Router) Nodes() []string {
	var out []string
	for _, n := range rt.snapshotNodes() {
		out = append(out, n.url)
	}
	return out
}

// snapshotNodes returns every node, in topology order.
func (rt *Router) snapshotNodes() []*node {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	var out []*node
	for _, p := range rt.parts {
		out = append(out, p.nodes...)
	}
	return out
}

// partNodes is one partition's node list (immutable once published by
// SetTopology), or nil when the index is stale — a concurrent topology
// change shrank the layout, and the request sheds.
func (rt *Router) partNodes(i int) []*node {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if i < 0 || i >= len(rt.parts) {
		return nil
	}
	return rt.parts[i].nodes
}

// epochIn is the highest epoch observed among nodes — the fencing
// stamp for requests routed within that partition.
func epochIn(nodes []*node) uint64 {
	var max uint64
	for _, n := range nodes {
		if e := n.view().Epoch; e > max {
			max = e
		}
	}
	return max
}

// epochForNode is the epoch stamp for a request sent to n: the epoch
// of the one partition n belongs to. Stamping another partition's epoch
// could wrongly fence a healthy primary, so a node the topology no
// longer lists gets 0 (no stamp).
func (rt *Router) epochForNode(n *node) uint64 {
	rt.mu.Lock()
	p := n.part
	rt.mu.Unlock()
	if p == nil {
		return 0
	}
	return epochIn(p.nodes)
}

// writeTargetIn picks the one node writes may go to within a
// partition: reachable, role primary, unfenced, not misplaced, highest
// epoch. Nil when no such node exists — that partition's writes shed
// until the prober (or a promotion) restores one.
func writeTargetIn(nodes []*node) *node {
	var best *node
	var bestEpoch uint64
	for _, n := range nodes {
		v := n.view()
		if !v.Reachable || v.Fenced || v.Misplaced || v.Role != rolePrimary {
			continue
		}
		if best == nil || v.Epoch > bestEpoch {
			best, bestEpoch = n, v.Epoch
		}
	}
	return best
}

// readTarget picks the node the next attempt of a read goes to, nil
// when every eligible node is in tried. A user-keyed read goes where the
// write went: its partition's write target first, so consume-then-
// recommend through the router sees its own write. The other nodes
// answer only when that one cannot (there is none, or it just failed
// this request), best probed state first: reachable and ready, then
// reachable (probe state may be a round stale), then the rest — a
// request is cheaper to fail on the wire than to shed on a guess. A
// stateless read carries its own history, so every node's answer is the
// same and the best tier is rotated for load spread. Fenced nodes are
// never offered: a deposed primary's unshipped tail makes its windows
// divergent, not merely stale. Misplaced nodes (they report owning a
// different partition) are never offered either: another partition's
// windows are the wrong data, not stale data.
func (rt *Router) readTarget(plan routePlan, tried map[*node]bool) *node {
	nodes := rt.partNodes(plan.partIdx)
	if !plan.keyed {
		nodes = rt.snapshotNodes()
	} else if wt := writeTargetIn(nodes); wt != nil && !tried[wt] {
		return wt
	}
	var tiers [3][]*node
	for _, n := range nodes {
		v := n.view()
		switch {
		case tried[n] || v.Fenced || v.Misplaced:
		case v.Reachable && v.Ready:
			tiers[0] = append(tiers[0], n)
		case v.Reachable:
			tiers[1] = append(tiers[1], n)
		default:
			tiers[2] = append(tiers[2], n)
		}
	}
	for _, best := range tiers {
		if len(best) > 1 && !plan.keyed {
			return best[int(rt.rr.Add(1))%len(best)]
		} else if len(best) > 0 {
			return best[0]
		}
	}
	return nil
}

// PartitionStatus is the per-partition block in the router's own
// /readyz body.
type PartitionStatus struct {
	Index       int      `json:"partition"`
	WriteTarget string   `json:"write_target,omitempty"`
	Epoch       uint64   `json:"epoch"`
	Nodes       []string `json:"nodes"`
}

// Status is the router's own /readyz body.
type Status struct {
	Status string `json:"status"`
	// WriteTarget is the single-partition convenience field (P=1);
	// per-partition targets live in Partitions.
	WriteTarget string            `json:"write_target,omitempty"`
	Epoch       uint64            `json:"epoch"`
	Partitions  []PartitionStatus `json:"partitions,omitempty"`
	Nodes       []NodeStatus      `json:"nodes"`
}

func partitionStatuses(parts []*partition) []PartitionStatus {
	out := make([]PartitionStatus, 0, len(parts))
	for _, p := range parts {
		ps := PartitionStatus{Index: p.index, Epoch: epochIn(p.nodes)}
		for _, n := range p.nodes {
			ps.Nodes = append(ps.Nodes, n.url)
		}
		if wt := writeTargetIn(p.nodes); wt != nil {
			ps.WriteTarget = wt.url
		}
		out = append(out, ps)
	}
	return out
}

// statusSnapshot assembles the current routed view. The router is 503
// only when it can serve nothing: no partition has a write target, or
// no read candidate exists anywhere. A single partition missing its
// primary degrades only that key range, and /readyz says so without
// failing the whole router.
func (rt *Router) statusSnapshot() (Status, int) {
	rt.mu.Lock()
	parts := append([]*partition(nil), rt.parts...)
	rt.mu.Unlock()

	// The fleet-wide epoch is display only: epochs are per-partition
	// timelines, and routing and fencing use the partition-scoped ones.
	nodes := rt.snapshotNodes()
	st := Status{Status: "ready", Epoch: epochIn(nodes)}
	code := http.StatusOK
	for _, n := range nodes {
		st.Nodes = append(st.Nodes, n.status())
	}
	st.Partitions = partitionStatuses(parts)

	var missing []string
	for _, ps := range st.Partitions {
		if ps.WriteTarget == "" {
			missing = append(missing, strconv.Itoa(ps.Index))
		}
	}
	switch {
	case len(missing) == len(st.Partitions):
		st.Status, code = "no write target", http.StatusServiceUnavailable
	case len(missing) > 0:
		st.Status = "degraded: no write target for partition(s) " + strings.Join(missing, ",")
	}
	if len(st.Partitions) == 1 {
		st.WriteTarget = st.Partitions[0].WriteTarget
	}
	if rt.readTarget(routePlan{}, nil) == nil {
		st.Status, code = "no backends", http.StatusServiceUnavailable
	}
	return st, code
}

// Routes returns the router's HTTP handler: the proxied API surface
// plus its own health and metrics endpoints.
func (rt *Router) Routes() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, _ *http.Request) {
		st, code := rt.statusSnapshot()
		if code != http.StatusOK {
			w.Header().Set("Retry-After", rt.retryAfterHint())
		}
		writeJSON(w, code, st)
	})
	if rt.reg != nil {
		mux.Handle("GET /metrics", rt.reg.Handler())
	}
	mux.Handle("POST /consume", rt.proxy("/consume", true, true))
	mux.Handle("POST /recommend", rt.proxy("/recommend", false, false))
	mux.Handle("POST /recommend/batch", rt.proxy("/recommend/batch", false, false))
	mux.Handle("POST /recommend/user", rt.proxy("/recommend/user", false, true))
	return mux
}

// retryAfterHint derives the Retry-After the router sends with its own
// 503s: one probe round (rounded up to a whole second) is when its view
// of the fleet can next improve.
func (rt *Router) retryAfterHint() string {
	secs := int(math.Ceil(rt.cfg.ProbeInterval.Seconds()))
	if secs < 1 {
		secs = 1
	}
	return strconv.Itoa(secs)
}

// userKey extracts the routing key from a user-keyed request body.
// Partitioned routing cannot proxy what it cannot place, so a missing
// or malformed user id is a 400 — but only partitioned fleets pay the
// parse (P=1 skips it entirely).
func userKey(body []byte) (int, error) {
	var k struct {
		User *int `json:"user"`
	}
	if err := json.Unmarshal(body, &k); err != nil {
		return 0, fmt.Errorf("partitioned routing: parse request body: %w", err)
	}
	if k.User == nil || *k.User < 0 {
		return 0, errors.New(`partitioned routing requires a non-negative "user" field`)
	}
	return *k.User, nil
}

// parseDeadlineMs parses a DeadlineHeader value; ok is false for a
// missing or malformed header (malformed is ignored, not an error — a
// bad hint must not reject a request the default deadline can serve).
func parseDeadlineMs(raw string) (time.Duration, bool) {
	if raw == "" {
		return 0, false
	}
	ms, err := strconv.ParseInt(raw, 10, 64)
	if err != nil || ms <= 0 {
		return 0, false
	}
	return time.Duration(ms) * time.Millisecond, true
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		log.Printf("rrc-router: encode response: %v", err)
	}
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}
