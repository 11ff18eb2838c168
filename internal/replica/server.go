package replica

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"time"

	"tsppr/internal/shard"
	"tsppr/internal/wal"
)

// Wire protocol headers. Every replication exchange carries the
// sender's epoch so neither side can act on a deposed timeline.
const (
	// EpochHeader carries the requester's epoch on stream/snapshot
	// requests and the responder's on every reply.
	EpochHeader = "X-RRC-Epoch"
	// NextLSNHeader carries the primary's commit horizon for the shard
	// on stream replies — the follower's lag is this minus its own next.
	NextLSNHeader = "X-RRC-Next-LSN"
	// SnapshotLSNHeader carries the applied LSN of a served snapshot.
	SnapshotLSNHeader = "X-RRC-Snapshot-LSN"
	// PartitionHeader carries a node's partition identity (i/c, the
	// shard.PartitionID wire form) on replication exchanges. Epochs only
	// fence within one partition's timeline, so a follower accidentally
	// pointed at another partition's primary must be refused before it
	// tails a single record — cross-partition replication would graft
	// one key range's WAL onto another's.
	PartitionHeader = "X-RRC-Partition"
)

// Source is the primary-side surface the stream server reads: the
// shard pool, narrowed to committed-log reads and snapshot serving.
type Source interface {
	// Shards returns the pool's shard count.
	Shards() int
	// NextLSN returns shard's commit horizon.
	NextLSN(shard int) (uint64, error)
	// Read delivers up to max committed records with LSN ≥ from and
	// returns the resume position. wal.ErrPruned → the follower must
	// reseed from a snapshot.
	Read(shard int, from uint64, max int, fn func(lsn uint64, payload []byte) error) (uint64, error)
	// Snapshot returns the path and applied LSN of shard's newest
	// snapshot, creating one if none exists.
	Snapshot(shard int) (path string, lsn uint64, err error)
}

// ErrorBody is the JSON body of a replication error response. On an
// epoch conflict (412) it tells the loser exactly how to converge: the
// winner's meta to adopt, and — for a deposed primary — the LSN its
// timeline diverged at, i.e. where to truncate.
type ErrorBody struct {
	Error         string `json:"error"`
	Epoch         uint64 `json:"epoch"`
	Meta          *Meta  `json:"meta,omitempty"`
	DivergenceLSN uint64 `json:"divergence_lsn,omitempty"`
	Truncate      bool   `json:"truncate,omitempty"`
	OldestLSN     uint64 `json:"oldest_lsn,omitempty"`
	// Partition carries the responder's partition identity on a 421
	// (cross-partition request) — the hint the misrouted side folds in.
	Partition *shard.PartitionID `json:"partition,omitempty"`
}

// Register wires the replication endpoints onto mux. A node serves
// them in either role: a follower answers the router's epoch probe and
// refuses to stream from a timeline it does not own.
func (n *Node) Register(mux *http.ServeMux) {
	mux.HandleFunc("GET /replica/stream", n.handleStream)
	mux.HandleFunc("GET /replica/snapshot", n.handleSnapshot)
	mux.HandleFunc("GET /replica/epoch", n.handleEpoch)
}

func (n *Node) wait() time.Duration {
	if n.cfg.Wait > 0 {
		return n.cfg.Wait
	}
	return 2 * time.Second
}

func writeJSON(w http.ResponseWriter, code int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(body)
}

// writeUnavailable is writeJSON(503) with the Retry-After every 503
// from this server carries: the source errors behind it (a shard mid
// restart, a snapshot mid flush) clear on the order of a second, and a
// follower that backs off longer than that just accumulates lag.
func writeUnavailable(w http.ResponseWriter, body any) {
	w.Header().Set("Retry-After", "1")
	writeJSON(w, http.StatusServiceUnavailable, body)
}

// checkPartition enforces partition identity on a replication request:
// a requester stamping a different partition index or count is answered
// 421 (Misdirected Request) with our identity as the hint, and nothing
// streams. Every reply carries our identity in PartitionHeader.
// Requests without the header — ops tooling, pre-partitioning
// followers — are let through.
func (n *Node) checkPartition(w http.ResponseWriter, r *http.Request) bool {
	own := n.pool.Partition()
	w.Header().Set(PartitionHeader, own.String())
	raw := r.Header.Get(PartitionHeader)
	if raw == "" {
		return true
	}
	theirs, err := shard.ParsePartitionID(raw)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, ErrorBody{Error: fmt.Sprintf("bad %s: %v", PartitionHeader, err), Partition: &own})
		return false
	}
	if theirs != own {
		writeJSON(w, http.StatusMisdirectedRequest, ErrorBody{
			Error:     fmt.Sprintf("request is for partition %s but this node owns %s: cross-partition replication refused", theirs, own),
			Partition: &own,
		})
		return false
	}
	return true
}

// checkEpoch compares the requester's epoch header against ours and
// resolves conflicts; it reports whether the request may proceed.
// Requests without the header (ops tooling, curl) are let through — the
// fencing contract binds replicas, which always send it.
func (n *Node) checkEpoch(w http.ResponseWriter, r *http.Request, shard int) (Meta, bool) {
	m, theirs, err := n.witness(r.Header.Get(EpochHeader))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, ErrorBody{Error: err.Error(), Epoch: m.Epoch})
		return m, false
	}
	switch {
	case theirs > m.Epoch:
		// The requester lives on a newer timeline: we are the deposed
		// node, and witness has fenced us. Refuse — never serve records
		// minted after the promotion we missed.
		writeJSON(w, http.StatusPreconditionFailed, ErrorBody{
			Error: fmt.Sprintf("request epoch %d above ours %d: this node is deposed", theirs, m.Epoch),
			Epoch: m.Epoch,
		})
		return m, false
	case theirs < m.Epoch:
		// The requester is behind: tell it where its timeline split so
		// it can truncate its divergent tail and adopt our history.
		body := ErrorBody{
			Error: fmt.Sprintf("request epoch %d below ours %d: truncate and adopt", theirs, m.Epoch),
			Epoch: m.Epoch,
			Meta:  &m,
		}
		if shard >= 0 {
			if div, ok := m.DivergenceLSN(shard, theirs); ok {
				body.DivergenceLSN = div
				body.Truncate = true
			}
		}
		writeJSON(w, http.StatusPreconditionFailed, body)
		return m, false
	}
	return m, true
}

func (n *Node) shardParam(w http.ResponseWriter, r *http.Request) (int, bool) {
	shard, err := strconv.Atoi(r.URL.Query().Get("shard"))
	if err != nil || shard < 0 || shard >= n.source.Shards() {
		writeJSON(w, http.StatusBadRequest, ErrorBody{Error: fmt.Sprintf("shard must be in [0,%d)", n.source.Shards())})
		return 0, false
	}
	return shard, true
}

// handleStream serves GET /replica/stream?shard=i&from=<lsn>: committed
// records from LSN `from` as CRC-framed chunks. A caught-up follower is
// long-polled briefly before an empty 200, so steady-state lag is one
// round trip, not one poll interval.
func (n *Node) handleStream(w http.ResponseWriter, r *http.Request) {
	if !n.checkPartition(w, r) {
		return
	}
	shard, ok := n.shardParam(w, r)
	if !ok {
		return
	}
	m, ok := n.checkEpoch(w, r, shard)
	if !ok {
		return
	}
	from, err := strconv.ParseUint(r.URL.Query().Get("from"), 10, 64)
	if err != nil || from == 0 {
		writeJSON(w, http.StatusBadRequest, ErrorBody{Error: "from must be a positive LSN", Epoch: m.Epoch})
		return
	}

	// Long-poll: wait for the commit horizon to pass `from`.
	deadline := time.Now().Add(n.wait())
	var next uint64
	for {
		next, err = n.source.NextLSN(shard)
		if err != nil {
			writeUnavailable(w, ErrorBody{Error: err.Error(), Epoch: m.Epoch})
			return
		}
		if next > from || time.Now().After(deadline) || r.Context().Err() != nil {
			break
		}
		select {
		case <-r.Context().Done():
		case <-time.After(10 * time.Millisecond):
		}
	}

	w.Header().Set(EpochHeader, strconv.FormatUint(m.Epoch, 10))
	w.Header().Set(NextLSNHeader, strconv.FormatUint(next, 10))
	w.Header().Set("Content-Type", "application/octet-stream")
	if next <= from {
		return // caught up; empty 200, headers carry the horizon
	}
	resume, err := n.source.Read(shard, from, n.cfg.MaxBatch, func(lsn uint64, payload []byte) error {
		return wal.WriteFrame(w, lsn, payload)
	})
	if errors.Is(err, wal.ErrPruned) && resume == from {
		// Nothing written yet: the follower is behind the retained log.
		// Point it at the snapshot instead.
		_, snapLSN, serr := n.source.Snapshot(shard)
		body := ErrorBody{Error: "requested lsn pruned: reseed from snapshot", Epoch: m.Epoch}
		if serr == nil {
			body.OldestLSN = snapLSN + 1
		}
		w.Header().Del("Content-Type")
		writeJSON(w, http.StatusGone, body)
		return
	}
	// A read error after the first frame cannot change the status line.
	// The response is buffered whole, so the follower gets the whole
	// frames written so far and its next poll resumes from its next LSN.
	// Nothing to do here.
}

// handleSnapshot serves the shard's newest snapshot file for reseeding,
// its applied LSN in SnapshotLSNHeader.
func (n *Node) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	if !n.checkPartition(w, r) {
		return
	}
	shard, ok := n.shardParam(w, r)
	if !ok {
		return
	}
	m, ok := n.checkEpoch(w, r, shard)
	if !ok {
		return
	}
	path, lsn, err := n.source.Snapshot(shard)
	if err != nil {
		writeUnavailable(w, ErrorBody{Error: err.Error(), Epoch: m.Epoch})
		return
	}
	// Read the whole file before any status is written: a read that
	// failed part-way must not answer 200 with a truncated snapshot.
	snap, err := os.ReadFile(path)
	if err != nil {
		writeUnavailable(w, ErrorBody{Error: err.Error(), Epoch: m.Epoch})
		return
	}
	w.Header().Set(EpochHeader, strconv.FormatUint(m.Epoch, 10))
	w.Header().Set(SnapshotLSNHeader, strconv.FormatUint(lsn, 10))
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(snap)
}

// handleEpoch serves the node's replication meta — the handshake a
// joining follower (or a peer startup check) uses to learn the current
// epoch and promotion history.
func (n *Node) handleEpoch(w http.ResponseWriter, r *http.Request) {
	if !n.checkPartition(w, r) {
		return
	}
	m, ok := n.checkEpoch(w, r, -1)
	if !ok {
		return
	}
	w.Header().Set(EpochHeader, strconv.FormatUint(m.Epoch, 10))
	writeJSON(w, http.StatusOK, m)
}
