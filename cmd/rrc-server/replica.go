// Replication control plane: one rrc-server process is either a
// primary (owns writes, streams its per-shard WAL to followers) or a
// warm standby (-follow <primary-url>: read-only, tails every shard,
// promotable). The roles share one mechanism — a monotonic epoch
// persisted next to the `shards` marker — so a deposed primary can
// never double-write users behind the cluster's back:
//
//	POST /admin/promote      → standby takes over: epoch++, writes open
//	GET  /replica/stream     → per-shard committed WAL records (framed)
//	GET  /replica/snapshot   → newest session snapshot, for reseeding
//	GET  /replica/epoch      → this node's epoch + promotion history
//
// Fencing rules: a replication request carrying a *higher* epoch tells
// this node it was deposed — it fences its ingest path (reads keep
// serving, /consume refuses) until an operator rejoins it as a
// follower of the new primary. A request carrying a *lower* epoch is
// answered 412 with the divergence LSN so the straggler can truncate
// its unshipped tail and adopt the new timeline. `-peers` makes a
// restarting primary ask the rest of the fleet first, so a crashed
// node that was promoted over comes back already fenced.
package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"strconv"
	"sync"
	"time"

	"tsppr/internal/obs"
	"tsppr/internal/replica"
)

// replState owns the node's replication role, epoch, and fence. It is
// nil on servers running without -events-dir.
type replState struct {
	srv  *server
	root string

	mu       sync.Mutex
	meta     replica.Meta
	follower bool // read-only standby tailing a primary
	fenced   bool // deposed primary: reads serve, writes refuse

	// promoteMu serializes whole promotions, so an operator's
	// /admin/promote racing the router's bumps the epoch once, not twice.
	promoteMu sync.Mutex

	tailer *replica.Follower // non-nil while following
	stream *replica.Server

	fencedG *obs.Gauge
	epochG  *obs.Gauge
}

// setupReplication wires the replication plane onto an online server:
// load the persisted epoch, choose the role from -follow, check -peers,
// and (follower) start the per-shard tailers. Must be called after
// s.online is set, before routes().
func (s *server) setupReplication() error {
	if s.online == nil {
		if s.opts.followURL != "" || len(s.opts.peers) > 0 {
			return errors.New("replication requires -events-dir")
		}
		return nil
	}
	root := s.online.pool.Root()
	meta, err := replica.LoadMeta(root)
	if err != nil {
		return err
	}
	rs := &replState{
		srv:      s,
		root:     root,
		meta:     meta,
		follower: s.opts.followURL != "",
	}
	rs.stream = &replica.Server{
		Source:         replica.PoolSource{Pool: s.online.pool},
		Meta:           rs.metaSnapshot,
		SawHigherEpoch: rs.fence,
		Wait:           s.opts.replWait,
		// The replication plane carries the partition identity too: a
		// follower of the wrong pair is refused (421) before a single
		// record crosses partitions.
		Partition: s.online.pool.Partition,
	}
	s.reg.Help("rrc_replica_fenced", "1 while this node's ingest path is fenced (deposed primary), else 0.")
	rs.fencedG = s.reg.Gauge("rrc_replica_fenced")
	if !rs.follower {
		// The follower registers rrc_replica_epoch itself (in Start); a
		// primary owns the series directly.
		s.reg.Help("rrc_replica_epoch", "The node's current replication epoch.")
		rs.epochG = s.reg.Gauge("rrc_replica_epoch")
		rs.epochG.Set(float64(meta.Epoch))
	}
	s.repl = rs

	if !rs.follower {
		// A restarting primary asks the fleet before accepting writes: if
		// any peer has witnessed a higher epoch, this node was deposed
		// while down and must come back fenced, not split-brained.
		for _, peer := range s.opts.peers {
			peerMeta, err := fetchPeerMeta(peer)
			if err != nil {
				log.Printf("replica: peer %s unreachable at startup (%v) — proceeding", peer, err)
				continue
			}
			if peerMeta.Epoch > meta.Epoch {
				rs.fence(peerMeta.Epoch)
				log.Printf("replica: peer %s is at epoch %d, ours is %d: starting fenced", peer, peerMeta.Epoch, meta.Epoch)
			}
		}
		return nil
	}

	f := &replica.Follower{
		Primary:     s.opts.followURL,
		Target:      replica.PoolTarget{Pool: s.online.pool},
		Metas:       replica.DirMetaStore{Root: root},
		Partition:   s.online.pool.Partition(),
		BackoffBase: s.opts.replBackoffBase,
		BackoffMax:  s.opts.replBackoffMax,
		Metrics:     s.reg,
	}
	if err := f.Start(); err != nil {
		return err
	}
	rs.tailer = f
	log.Printf("replica: following %s (epoch %d): read-only standby, POST /admin/promote to take over", s.opts.followURL, f.Epoch())
	return nil
}

// fetchPeerMeta asks a peer for its replication meta.
func fetchPeerMeta(base string) (replica.Meta, error) {
	var m replica.Meta
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

func (rs *replState) metaSnapshot() replica.Meta {
	// A follower's meta evolves inside the tailer (adoptions); the
	// authoritative copy lives there until promotion copies it back.
	rs.mu.Lock()
	t := rs.tailer
	m := rs.meta
	rs.mu.Unlock()
	if t != nil {
		return t.MetaSnapshot()
	}
	return m
}

// fence marks this node deposed: a replication request proved a higher
// epoch exists, so acknowledged writes here could be silently lost
// forks. Reads keep serving; /consume refuses until the node rejoins.
func (rs *replState) fence(higher uint64) {
	rs.mu.Lock()
	already := rs.fenced
	rs.fenced = true
	rs.mu.Unlock()
	rs.fencedG.Set(1)
	if !already {
		log.Printf("replica: observed epoch %d above ours %d: ingest fenced (restart with -follow <new-primary> to rejoin)",
			higher, rs.metaSnapshot().Epoch)
	}
}

// following reports whether this node is a standby not yet promoted.
func (rs *replState) following() bool {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return rs.follower
}

// writeBlocked reports why this node cannot accept /consume, or nil.
func (rs *replState) writeBlocked() error {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if rs.follower {
		return errors.New("read-only standby: this node follows a primary (POST /admin/promote to take over)")
	}
	if rs.fenced {
		return fmt.Errorf("ingest fenced: a newer epoch than ours (%d) exists, rejoin as a follower", rs.meta.Epoch)
	}
	return nil
}

// checkIngestEpoch enforces epoch fencing on the ingest path for
// callers that carry the replication epoch header (replicas, fleet
// proxies). Plain clients without the header are governed by
// writeBlocked alone.
func (rs *replState) checkIngestEpoch(r *http.Request) error {
	raw := r.Header.Get(replica.EpochHeader)
	if raw == "" {
		return nil
	}
	theirs, err := strconv.ParseUint(raw, 10, 64)
	if err != nil {
		return fmt.Errorf("bad %s: %w", replica.EpochHeader, err)
	}
	own := rs.metaSnapshot().Epoch
	if theirs < own {
		return fmt.Errorf("request epoch %d below ours %d", theirs, own)
	}
	if theirs > own {
		rs.fence(theirs)
		return fmt.Errorf("request epoch %d above ours %d: this node is deposed", theirs, own)
	}
	return nil
}

// promote turns this standby into the primary: stop tailing, bump the
// epoch with the current per-shard horizons as the new timeline's
// bases, persist, open writes. Everything the old primary acknowledged
// but never shipped is now formally divergent — it will be truncated
// when that node rejoins.
func (rs *replState) promote() (replica.Meta, error) {
	rs.promoteMu.Lock()
	defer rs.promoteMu.Unlock()
	rs.mu.Lock()
	if !rs.follower && !rs.fenced {
		m := rs.meta
		rs.mu.Unlock()
		return m, fmt.Errorf("already primary at epoch %d", m.Epoch)
	}
	t := rs.tailer
	rs.mu.Unlock()

	// Join the tailers first so no shipped record lands after the bases
	// are read; promoteMu keeps a racing second promotion from
	// double-bumping the epoch.
	var m replica.Meta
	if t != nil {
		t.Stop()
		m = t.MetaSnapshot()
	} else {
		m = rs.metaSnapshot()
	}
	bases, err := replica.NextLSNs(rs.srv.online.pool)
	if err != nil {
		return m, fmt.Errorf("promote: reading shard horizons: %w", err)
	}
	promoted, err := m.Promote(m.Epoch+1, bases)
	if err != nil {
		return m, err
	}
	if err := promoted.Store(rs.root); err != nil {
		return m, err
	}
	rs.mu.Lock()
	rs.meta = promoted
	rs.follower = false
	rs.fenced = false
	rs.tailer = nil
	rs.mu.Unlock()
	rs.fencedG.Set(0)
	rs.srv.reg.Help("rrc_replica_epoch", "The node's current replication epoch.")
	rs.srv.reg.Gauge("rrc_replica_epoch").Set(float64(promoted.Epoch))
	log.Printf("replica: promoted to primary at epoch %d (bases %v)", promoted.Epoch, promoted.History[len(promoted.History)-1].Bases)
	return promoted, nil
}

// stop winds the replication plane down for shutdown: the tailers
// join, so nothing is applying into the pool while it drains.
func (rs *replState) stop() {
	rs.mu.Lock()
	t := rs.tailer
	rs.mu.Unlock()
	if t != nil {
		t.Stop()
	}
}

// promoteResponse is the POST /admin/promote reply.
type promoteResponse struct {
	Epoch uint64 `json:"epoch"`
	Role  string `json:"role"`
}

// handlePromote flips a standby (or a fenced ex-primary that has been
// repointed) into the primary role under a bumped epoch.
func (s *server) handlePromote(w http.ResponseWriter, _ *http.Request) {
	m, err := s.repl.promote()
	if err != nil {
		writeError(w, http.StatusConflict, err)
		return
	}
	writeJSON(w, http.StatusOK, promoteResponse{Epoch: m.Epoch, Role: "primary"})
}

// replStatus summarizes the replication plane for /readyz.
type replStatus struct {
	Role   string `json:"role"`
	Epoch  uint64 `json:"epoch"`
	Fenced bool   `json:"fenced,omitempty"`
	// LagRecords sums the per-shard record lag (followers only).
	LagRecords uint64 `json:"lag_records,omitempty"`
	CaughtUp   bool   `json:"caught_up,omitempty"`
	// AppliedLSN sums the per-shard applied LSNs: what this node holds
	// now, comparable between nodes of one partition on one epoch.
	AppliedLSN uint64 `json:"applied_lsn"`
}

func (rs *replState) status() replStatus {
	rs.mu.Lock()
	follower, fenced, t := rs.follower, rs.fenced, rs.tailer
	rs.mu.Unlock()
	st := replStatus{Role: "primary", Epoch: rs.metaSnapshot().Epoch, Fenced: fenced}
	for _, sh := range rs.srv.online.pool.Statuses() {
		st.AppliedLSN += sh.AppliedLSN
	}
	if follower {
		st.Role = "follower"
		if t != nil {
			for i := 0; i < rs.srv.online.pool.N(); i++ {
				rec, _ := t.Lag(i)
				st.LagRecords += rec
			}
			st.CaughtUp = t.CaughtUp()
		}
	}
	return st
}
