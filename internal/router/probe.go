// Health probing and failover. Each probe round asks every node two
// questions in parallel:
//
//	GET /readyz          — serving state, shard states, replication
//	                       role/epoch/fence/lag/applied LSN (the replStatus block),
//	                       and the node's partition identity
//	GET /replica/epoch   — the replication meta, carrying the highest
//	                       epoch the router has seen in that node's
//	                       PARTITION in X-RRC-Epoch
//
// The second probe is also the fencing mechanism: rrc-server's epoch
// check self-fences when it sees a higher epoch than its own, so a
// deposed primary stops accepting writes the moment the router —
// which has talked to the promoted node — probes it. No new protocol;
// the router is just another replication-aware peer. Epochs are
// per-partition timelines: stamping partition 1's epoch on partition
// 0's primary could depose a perfectly healthy node, so each probe
// carries only its own partition's epoch.
//
// The /readyz partition block cross-checks ownership: a node whose
// persisted -partition identity disagrees with the slot the topology
// assigns it is marked misplaced and excluded from all routing — a
// misconfigured topology file serves loud errors, never another
// partition's keys.
package router

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"sync"
	"syscall"
	"time"
)

// Node roles as reported by /readyz. A node that reports no
// replication block (only an rrc-server built before -events-dir was
// required does) has no role: it still serves stateless reads but is
// never a write target or a promotion candidate.
const (
	rolePrimary  = "primary"
	roleFollower = "follower"
)

// nodeView is one probed snapshot of a backend's state.
type nodeView struct {
	Reachable  bool
	Ready      bool
	Status     string
	Role       string
	Epoch      uint64
	Fenced     bool
	LagRecords uint64
	AppliedLSN uint64
	CaughtUp   bool
	// Partition identity the node itself reported (via /readyz or a
	// 421 body); PartKnown false when the node never said.
	PartKnown bool
	PartIndex int
	PartCount int
	// Misplaced: the node's reported identity is not the slot the
	// topology assigns it. Misplaced nodes take no traffic at all.
	Misplaced bool
	LastErr   string
	LastProbe time.Time
	// Misses counts the missed probes in a row this view has outlived.
	Misses int
}

// nextView is the retention rule, the one place a node's view changes
// hands. An answered probe (probed.Reachable) replaces the view. A
// refused probe, or a proxy attempt that failed to dial, takes the node
// out at once. Any other miss, a timeout included, keeps the last
// answered view, so a partition's write target stays its write target,
// until fails probes in a row have missed: one slow /readyz must not
// take a partition's writes offline.
func nextView(prev, probed nodeView, refused bool, fails int) nodeView {
	if !probed.Reachable && !refused && prev.Reachable && prev.Misses+1 < fails {
		prev.Misses++
		prev.LastErr, prev.LastProbe = probed.LastErr, probed.LastProbe
		return prev
	}
	return probed
}

// node pairs a backend URL with its latest probed view and its idle
// upstream connections.
type node struct {
	url  string
	host string // url without its http:// prefix: dial address and Host header
	pool connPool
	// part is the one partition the topology assigns this node, nil once
	// the topology drops it. Guarded by Router.mu; SetTopology rewrites it.
	part *partition

	mu sync.Mutex
	v  nodeView
}

func (n *node) view() nodeView {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.v
}

// observe folds one probe (or failed dial) into the view by nextView.
func (n *node) observe(probed nodeView, refused bool, fails int) {
	n.mu.Lock()
	n.v = nextView(n.v, probed, refused, fails)
	n.mu.Unlock()
}

// NodeStatus is the per-node block in the router's own /readyz body.
type NodeStatus struct {
	URL        string `json:"url"`
	Reachable  bool   `json:"reachable"`
	Ready      bool   `json:"ready"`
	Status     string `json:"status,omitempty"`
	Role       string `json:"role,omitempty"`
	Epoch      uint64 `json:"epoch"`
	Fenced     bool   `json:"fenced,omitempty"`
	LagRecords uint64 `json:"lag_records,omitempty"`
	Partition  string `json:"partition,omitempty"`
	Misplaced  bool   `json:"misplaced,omitempty"`
	Error      string `json:"error,omitempty"`
}

func (n *node) status() NodeStatus {
	v := n.view()
	ns := NodeStatus{
		URL: n.url, Reachable: v.Reachable, Ready: v.Ready,
		Status: v.Status, Role: v.Role, Epoch: v.Epoch,
		Fenced: v.Fenced, LagRecords: v.LagRecords,
		Misplaced: v.Misplaced, Error: v.LastErr,
	}
	if v.PartKnown {
		ns.Partition = fmt.Sprintf("%d/%d", v.PartIndex, v.PartCount)
	}
	return ns
}

// readyBody mirrors rrc-server's readyResponse — only the fields the
// router routes on.
type readyBody struct {
	Status      string `json:"status"`
	Replication *struct {
		Role       string `json:"role"`
		Epoch      uint64 `json:"epoch"`
		Fenced     bool   `json:"fenced"`
		LagRecords uint64 `json:"lag_records"`
		AppliedLSN uint64 `json:"applied_lsn"`
		CaughtUp   bool   `json:"caught_up"`
	} `json:"replication"`
	Partition *struct {
		Index int `json:"partition"`
		Count int `json:"partitions"`
	} `json:"partition"`
}

// epochBody covers both shapes /replica/epoch answers with: the meta on
// 200 and replica.ErrorBody on 412 — each carries an "epoch" field.
type epochBody struct {
	Epoch uint64 `json:"epoch"`
}

// probeJob is one node's probe work for a round: the partition epoch
// to stamp and the one topology slot (index of count) the node may
// legitimately claim.
type probeJob struct {
	n            *node
	epoch        uint64
	index, count int
}

// probeRound probes every node in parallel, updates views, then runs
// the per-partition failover policy on the refreshed picture.
func (rt *Router) probeRound() {
	jobs := rt.probeJobs()
	if len(jobs) == 0 {
		return
	}
	var wg sync.WaitGroup
	for _, j := range jobs {
		wg.Add(1)
		go func(j probeJob) {
			defer wg.Done()
			rt.probeNode(j)
		}(j)
	}
	wg.Wait()
	rt.maybeFailover()
}

// probeJobs assembles the round's work under the topology lock: one
// job per node, stamped with its own partition's epoch.
func (rt *Router) probeJobs() []probeJob {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	var jobs []probeJob
	for _, p := range rt.parts {
		epoch := epochIn(p.nodes)
		for _, n := range p.nodes {
			jobs = append(jobs, probeJob{n: n, epoch: epoch, index: p.index, count: len(rt.parts)})
		}
	}
	return jobs
}

// probeNode refreshes one node's view. The node counts reachable when
// either endpoint answered with parseable JSON — /replica/epoch can
// legitimately 412 (stale router epoch on one side or the other) and
// the body still tells us the node's true epoch. An unreachable result
// goes through nextView, which may keep the last view for a while.
func (rt *Router) probeNode(j probeJob) {
	n, epoch := j.n, j.epoch
	v := nodeView{LastProbe: time.Now()}
	deadline := v.LastProbe.Add(rt.cfg.ProbeTimeout)

	res, err := rt.roundTrip(n, upstreamReq{method: http.MethodGet, path: "/readyz"}, deadline)
	if err == nil {
		var rb readyBody
		if jerr := json.Unmarshal(res.body, &rb); jerr == nil {
			v.Reachable = true
			v.Ready = res.status == http.StatusOK
			v.Status = rb.Status
			if rep := rb.Replication; rep != nil {
				v.Role = rep.Role
				v.Epoch = rep.Epoch
				v.Fenced = rep.Fenced
				v.LagRecords = rep.LagRecords
				v.AppliedLSN = rep.AppliedLSN
				v.CaughtUp = rep.CaughtUp
			}
			if pb := rb.Partition; pb != nil {
				v.PartKnown = true
				v.PartIndex, v.PartCount = pb.Index, pb.Count
				if pb.Index != j.index || pb.Count != j.count {
					v.Misplaced = true
					v.LastErr = fmt.Sprintf(
						"node owns partition %d/%d but the topology assigns %d/%d — misconfiguration, node excluded from routing",
						pb.Index, pb.Count, j.index, j.count)
				}
			}
		} else {
			err = fmt.Errorf("readyz: %w", jerr)
		}
	}
	if err != nil {
		v.LastErr = err.Error()
	}

	// The epoch probe both refreshes the epoch (412 bodies included)
	// and fences deposed nodes via the X-RRC-Epoch contract.
	res, eerr := rt.roundTrip(n, upstreamReq{method: http.MethodGet, path: "/replica/epoch", epoch: epoch}, deadline)
	if eerr == nil {
		var eb epochBody
		if json.Unmarshal(res.body, &eb) == nil {
			v.Reachable = true
			if eb.Epoch > v.Epoch {
				v.Epoch = eb.Epoch
			}
			if res.status == http.StatusPreconditionFailed && eb.Epoch < epoch {
				// The node answered from a lower epoch than its partition's:
				// our probe just deposed it (it fenced on our stamp).
				v.Fenced = true
			}
		}
	}
	n.observe(v, errors.Is(err, syscall.ECONNREFUSED), rt.cfg.ProbeFails)
}

// foldFence folds a 412 (epoch fence) response body into the node's
// view immediately, instead of retrying against a view that only the
// next probe round would refresh. Both directions matter: a body epoch
// above the partition's raises the node's epoch (the partition moved on
// without us — the next attempt stamps the fresher epoch and can
// succeed on this same node), while a body epoch at or below the
// partition's marks the node fenced (it refused a write on the current
// timeline, so it cannot be the write target until a probe says
// otherwise).
func (rt *Router) foldFence(n *node, body []byte) {
	var eb epochBody
	if json.Unmarshal(body, &eb) != nil {
		return
	}
	fleet := rt.epochForNode(n)
	n.mu.Lock()
	if eb.Epoch > n.v.Epoch {
		n.v.Epoch = eb.Epoch
	}
	if eb.Epoch <= fleet {
		n.v.Fenced = true
	}
	n.mu.Unlock()
}

// misdirectBody is the online-plane 421 shape: the owning partition
// hint rrc-server attaches when asked for a key it does not own.
type misdirectBody struct {
	Partition  *int `json:"partition"`
	Partitions int  `json:"partitions"`
}

// foldMisdirect folds a 421 (cross-partition request) into the node's
// view like a fence: the node told us it owns a different key range
// than we routed, so it leaves rotation immediately and loudly. The
// next probe round re-checks; once the topology (or the node's
// -partition) is fixed the node returns on its own.
func (rt *Router) foldMisdirect(n *node, body []byte) {
	rt.misdirects.Inc()
	var mb misdirectBody
	hint := "an unknown partition"
	if json.Unmarshal(body, &mb) == nil && mb.Partition != nil {
		hint = fmt.Sprintf("partition %d/%d", *mb.Partition, mb.Partitions)
	}
	n.mu.Lock()
	n.v.Misplaced = true
	if mb.Partition != nil {
		n.v.PartKnown = true
		n.v.PartIndex, n.v.PartCount = *mb.Partition, mb.Partitions
	}
	n.v.LastErr = fmt.Sprintf("421: node owns %s, not the partition the topology routed — node excluded from routing", hint)
	n.mu.Unlock()
	log.Printf("rrc-router: MISROUTE: %s refused a request for a key it does not own (it owns %s) — topology file and the node's -partition disagree", n.url, hint)
}

// maybeFailover runs the consecutive-probe-failure promotion policy
// independently for every partition: when a partition has had no write
// target for ProbeFails straight rounds and AutoPromote is on, promote
// its best eligible standby. The streak gate makes a single flapped
// probe harmless; the "best standby" choice prefers the follower on the
// highest epoch that has applied the most, minimizing the
// acked-but-unshipped window the deposed primary will truncate on
// rejoin. Partitions fail over without reference to each other — one
// pair's outage never touches another pair's timeline.
func (rt *Router) maybeFailover() {
	type pending struct {
		index  int
		key    string
		streak int
		nodes  []*node
	}
	var due []pending
	rt.mu.Lock()
	for _, p := range rt.parts {
		if writeTargetIn(p.nodes) != nil {
			p.noTargetStreak = 0
			continue
		}
		p.noTargetStreak++
		if rt.cfg.AutoPromote && p.noTargetStreak >= rt.cfg.ProbeFails {
			due = append(due, pending{
				index: p.index, key: p.key, streak: p.noTargetStreak,
				nodes: append([]*node(nil), p.nodes...),
			})
		}
	}
	rt.mu.Unlock()

	for _, d := range due {
		cand := promoteCandidate(d.nodes)
		if cand == nil {
			continue
		}
		if err := rt.promoteNode(cand); err != nil {
			log.Printf("rrc-router: partition %d: promote %s failed: %v", d.index, cand.url, err)
			continue
		}
		rt.failovers.Inc()
		rt.mu.Lock()
		for _, p := range rt.parts {
			if p.key == d.key {
				p.noTargetStreak = 0
			}
		}
		rt.mu.Unlock()
		log.Printf("rrc-router: partition %d: no write target for %d probe rounds: promoted %s", d.index, d.streak, cand.url)
	}
}

// promoteCandidate picks the standby to promote within one partition:
// reachable, unfenced, correctly-placed followers only, highest epoch
// first, then the most applied records. caught_up says the follower held
// what the primary had one poll ago, which under write load is not what
// it holds now, so it only breaks a tie.
func promoteCandidate(nodes []*node) *node {
	var best *node
	var bestV nodeView
	for _, n := range nodes {
		v := n.view()
		if !v.Reachable || v.Fenced || v.Misplaced || v.Role != roleFollower {
			continue
		}
		switch {
		case best == nil:
		case v.Epoch != bestV.Epoch:
			if v.Epoch < bestV.Epoch {
				continue
			}
		case v.AppliedLSN != bestV.AppliedLSN:
			if v.AppliedLSN < bestV.AppliedLSN {
				continue
			}
		case !v.CaughtUp || bestV.CaughtUp:
			continue
		}
		best, bestV = n, v
	}
	return best
}

// promoteNode POSTs /admin/promote and folds the reply into the node's
// view so the very next request can route to it — no probe-round gap.
func (rt *Router) promoteNode(n *node) error {
	q := upstreamReq{method: http.MethodPost, path: "/admin/promote"}
	res, err := rt.roundTrip(n, q, time.Now().Add(rt.cfg.ProbeTimeout))
	if err != nil {
		return err
	}
	if res.status != http.StatusOK {
		return fmt.Errorf("%d %s: %s", res.status, http.StatusText(res.status), bytes.TrimSpace(res.body))
	}
	var pr struct {
		Epoch uint64 `json:"epoch"`
	}
	if err := json.Unmarshal(res.body, &pr); err != nil {
		return err
	}
	n.mu.Lock()
	n.v.Role = rolePrimary
	n.v.Epoch = pr.Epoch
	n.v.Fenced = false
	n.v.LagRecords = 0
	n.mu.Unlock()
	return nil
}
