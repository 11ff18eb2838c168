package replica

// A node's replication role. One rrc-server events root is either a
// primary (owns writes, streams its per-shard WAL to followers) or a
// warm standby (-follow <primary-url>: read-only, tails every shard,
// promotable). Both share one mechanism, the monotonic epoch persisted
// next to the `shards` marker, so a deposed primary can never
// double-write users behind the fleet's back:
//
//	POST /admin/promote      → standby takes over: epoch++, writes open
//	GET  /replica/stream     → per-shard committed WAL records (framed)
//	GET  /replica/snapshot   → newest session snapshot, for reseeding
//	GET  /replica/epoch      → this node's epoch + promotion history
//
// The rule, stated once: a node is fenced exactly while it has seen an
// epoch above its own. Any request stamped with a higher epoch raises
// what it has seen; adopting that epoch as a follower lowers the fence
// again. A write is acked only by an unfenced primary, and only an
// unfenced follower may be promoted, to an epoch above all it has seen.
// A request stamped with a *lower* epoch is answered 412 with the
// divergence LSN, so the straggler can truncate its unshipped tail and
// adopt the new timeline. Peers make a restarting primary ask the rest
// of the fleet first, so a crashed node that was promoted over comes
// back already fenced.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"strconv"
	"sync"
	"time"

	"tsppr/internal/obs"
	"tsppr/internal/shard"
)

// Config sets a node's role and tuning.
type Config struct {
	// Follow is the primary's base URL, e.g. http://10.0.0.1:8080. Set,
	// the node opens as a read-only standby tailing every shard; empty,
	// as a primary.
	Follow string
	// Peers are asked for their epoch before a primary opens; one above
	// ours opens this node fenced. Followers skip the check.
	Peers []string

	// Source serves /replica/stream and /replica/snapshot; nil reads
	// the pool.
	Source Source
	// MaxBatch bounds records per stream response; 0 → wal batch default.
	MaxBatch int
	// Wait bounds the long-poll when a follower is caught up: the
	// handler holds the request open until a new record lands or Wait
	// elapses, then returns an empty 200. 0 → 2s.
	Wait time.Duration

	// BackoffBase/BackoffMax shape the follower's retry schedule on
	// stream errors. Defaults: 100ms / 5s.
	BackoffBase time.Duration
	BackoffMax  time.Duration

	// Metrics, when non-nil, receives the rrc_replica_* families.
	Metrics *obs.Registry
}

// Node owns one events root's replication role: its one Meta, whether
// it follows a primary, the highest epoch it has seen, the per-shard
// tailers while it follows, and the /replica/* handlers it serves in
// either role.
type Node struct {
	pool   *shard.Pool
	source Source
	cfg    Config

	mu        sync.Mutex
	meta      Meta
	seen      uint64 // highest epoch observed; fenced ≡ seen > meta.Epoch
	following bool

	// promoteMu serializes whole promotions, so an operator's
	// /admin/promote racing the router's bumps the epoch once, not twice.
	promoteMu sync.Mutex
	// convergeMu serializes whole-node epoch convergence across the
	// shard tailers.
	convergeMu sync.Mutex

	cancel context.CancelFunc
	done   sync.WaitGroup
	shards []*shardTailer // one per shard while following, else nil
}

// Open loads the epoch marker at pool's root and takes the role cfg
// picks: a follower starts its per-shard tailers, a primary asks its
// peers whether it was promoted over while down.
func Open(pool *shard.Pool, cfg Config) (*Node, error) {
	meta, err := LoadMeta(pool.Root())
	if err != nil {
		return nil, err
	}
	n := &Node{pool: pool, source: cfg.Source, cfg: cfg, meta: meta, seen: meta.Epoch, following: cfg.Follow != ""}
	if n.source == nil {
		n.source = poolSource{pool}
	}
	reg := cfg.Metrics
	reg.Help("rrc_replica_epoch", "The node's current replication epoch.")
	reg.GaugeFunc("rrc_replica_epoch", func() float64 { return float64(n.Meta().Epoch) })
	reg.Help("rrc_replica_fenced", "1 while this node's ingest path is fenced (deposed primary), else 0.")
	reg.GaugeFunc("rrc_replica_fenced", func() float64 {
		if _, _, fenced := n.state(); fenced {
			return 1
		}
		return 0
	})
	if n.following {
		n.startTailers()
		log.Printf("replica: following %s (epoch %d): read-only standby, POST /admin/promote to take over", cfg.Follow, meta.Epoch)
		return n, nil
	}
	for _, peer := range cfg.Peers {
		peerMeta, err := fetchPeerMeta(peer)
		if err != nil {
			log.Printf("replica: peer %s unreachable at startup (%v) — proceeding", peer, err)
			continue
		}
		if peerMeta.Epoch > meta.Epoch {
			n.mu.Lock()
			n.see(peerMeta.Epoch)
			n.mu.Unlock()
			log.Printf("replica: peer %s is at epoch %d, ours is %d: starting fenced", peer, peerMeta.Epoch, meta.Epoch)
		}
	}
	return n, nil
}

// fetchPeerMeta asks a peer for its replication meta.
func fetchPeerMeta(base string) (Meta, error) {
	var m Meta
	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get(base + "/replica/epoch")
	if err != nil {
		return m, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return m, fmt.Errorf("peer returned %s", resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return m, err
	}
	return m, nil
}

// Meta returns the node's current replication meta.
func (n *Node) Meta() Meta {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.meta
}

// Following reports whether this node is a standby not yet promoted.
func (n *Node) Following() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.following
}

// state returns the meta, the role and the fence, read together.
func (n *Node) state() (m Meta, following, fenced bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.meta, n.following, n.seen > n.meta.Epoch
}

// see records an observed epoch; the caller holds mu. The first epoch
// above ours fences the node, and is logged.
func (n *Node) see(epoch uint64) {
	if epoch > n.meta.Epoch && n.seen <= n.meta.Epoch {
		log.Printf("replica: observed epoch %d above ours %d: ingest fenced (restart with -follow <new-primary> to rejoin)",
			epoch, n.meta.Epoch)
	}
	n.seen = max(n.seen, epoch)
}

// witness parses a request's EpochHeader value and records it. It
// returns the meta the request is judged against and the request's
// epoch; an absent header reads as ours.
func (n *Node) witness(stamp string) (Meta, uint64, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if stamp == "" {
		return n.meta, n.meta.Epoch, nil
	}
	theirs, err := strconv.ParseUint(stamp, 10, 64)
	if err != nil {
		return n.meta, 0, fmt.Errorf("bad %s: %w", EpochHeader, err)
	}
	n.see(theirs)
	return n.meta, theirs, nil
}

// AdmitWrite decides whether this node may ack a write whose request
// carried stamp as its EpochHeader ("" for a plain client). A refusal
// comes with its status: 412 when the stamp is not our epoch (a higher
// one also fences us), 503 when this node follows or is fenced.
func (n *Node) AdmitWrite(stamp string) (int, error) {
	m, theirs, err := n.witness(stamp)
	switch {
	case err != nil:
		return http.StatusPreconditionFailed, err
	case theirs < m.Epoch:
		return http.StatusPreconditionFailed, fmt.Errorf("request epoch %d below ours %d", theirs, m.Epoch)
	case theirs > m.Epoch:
		return http.StatusPreconditionFailed, fmt.Errorf("request epoch %d above ours %d: this node is deposed", theirs, m.Epoch)
	}
	m, following, fenced := n.state()
	if following {
		return http.StatusServiceUnavailable, errors.New("read-only standby: this node follows a primary (POST /admin/promote to take over)")
	}
	if fenced {
		return http.StatusServiceUnavailable, fmt.Errorf("ingest fenced: a newer epoch than ours (%d) exists, rejoin as a follower", m.Epoch)
	}
	return 0, nil
}

// errFenced refuses a promotion: a newer epoch exists, and this node's
// unshipped tail diverges from it.
var errFenced = errors.New("fenced: a newer epoch exists; rejoin as a follower of its primary before promoting")

// Promote turns this unfenced standby into the primary: stop tailing,
// bump the epoch with the current per-shard horizons as the new
// timeline's bases, persist, open writes. Everything the old primary
// acknowledged but never shipped is now formally divergent — it will be
// truncated when that node rejoins.
func (n *Node) Promote() (Meta, error) {
	n.promoteMu.Lock()
	defer n.promoteMu.Unlock()
	m, following, fenced := n.state()
	if fenced {
		return m, errFenced
	}
	if !following {
		return m, fmt.Errorf("already primary at epoch %d", m.Epoch)
	}
	// Join the tailers first so no shipped record lands after the bases
	// are read.
	n.Close()
	bases, err := NextLSNs(n.pool)
	if err != nil {
		return m, fmt.Errorf("promote: reading shard horizons: %w", err)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.seen > n.meta.Epoch {
		return n.meta, errFenced // fenced while the tailers stopped
	}
	promoted, err := n.meta.Promote(n.meta.Epoch+1, bases)
	if err == nil {
		err = promoted.Store(n.pool.Root())
	}
	if err != nil {
		return n.meta, err
	}
	n.meta, n.seen, n.following = promoted, promoted.Epoch, false
	log.Printf("replica: promoted to primary at epoch %d (bases %v)", promoted.Epoch, bases)
	return promoted, nil
}

// adopt makes a primary's meta this follower's and persists it. The
// caller has already cut every shard to the shared timeline.
func (n *Node) adopt(primary Meta) (Meta, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	adopted, err := n.meta.Adopt(primary)
	if err == nil {
		err = adopted.Store(n.pool.Root())
	}
	if err != nil {
		return n.meta, err
	}
	n.meta = adopted
	n.seen = max(n.seen, adopted.Epoch)
	return adopted, nil
}

// Close stops the tailers and waits for them to exit, so nothing applies
// into the pool after it returns. Safe to repeat; a no-op on a primary.
func (n *Node) Close() {
	if n.cancel != nil {
		n.cancel()
		n.done.Wait()
	}
}

// Status is the node's block on /readyz.
type Status struct {
	Role   string `json:"role"`
	Epoch  uint64 `json:"epoch"`
	Fenced bool   `json:"fenced,omitempty"`
	// LagRecords sums the per-shard record lag (followers only).
	LagRecords uint64 `json:"lag_records,omitempty"`
	CaughtUp   bool   `json:"caught_up,omitempty"`
	// AppliedLSN sums the per-shard applied LSNs: what this node holds
	// now, comparable between nodes of one partition on one epoch.
	AppliedLSN uint64 `json:"applied_lsn"`
	// ShardAppliedLSN is each shard's applied LSN, in shard order.
	ShardAppliedLSN []uint64 `json:"shard_applied_lsn"`
}

// Status summarizes the node's role, epoch, fence and (follower) lag.
func (n *Node) Status() Status {
	m, following, fenced := n.state()
	st := Status{Role: "primary", Epoch: m.Epoch, Fenced: fenced}
	for _, sh := range n.pool.Statuses() {
		st.AppliedLSN += sh.AppliedLSN
		st.ShardAppliedLSN = append(st.ShardAppliedLSN, sh.AppliedLSN)
	}
	if following {
		st.Role = "follower"
		for i := range n.shards {
			rec, _ := n.Lag(i)
			st.LagRecords += rec
		}
		st.CaughtUp = n.CaughtUp()
	}
	return st
}
