package replica

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/url"
	"strconv"
	"sync/atomic"
	"time"

	"tsppr/internal/atomicio"
	"tsppr/internal/obs"
	"tsppr/internal/sessions"
	"tsppr/internal/wal"
)

// tailClient carries every follower request. Its timeout bounds one
// long poll or one snapshot download.
var tailClient = &http.Client{Timeout: 30 * time.Second}

// shardTailer is one shard's replication loop state.
type shardTailer struct {
	shard       int
	primaryNext atomic.Uint64 // last seen primary horizon
	localNext   atomic.Uint64 // local commit horizon after the last apply
	lagSince    atomic.Int64  // unix nanos when lag last became nonzero; 0 = caught up
	quietUntil  atomic.Int64  // unix nanos until which the shard counts as caught up; 0 = not

	applied   *obs.Counter
	streamErr *obs.Counter
	resyncs   *obs.Counter
}

// Lag returns shard's current replication lag in records (primary
// horizon minus local) and how long the shard has been behind.
func (n *Node) Lag(shard int) (records uint64, behind time.Duration) {
	st := n.shards[shard]
	p, l := st.primaryNext.Load(), st.localNext.Load()
	if p > l {
		records = p - l
	}
	if since := st.lagSince.Load(); since != 0 {
		behind = time.Since(time.Unix(0, since))
	}
	return records, behind
}

func (n *Node) backoffBase() time.Duration {
	if n.cfg.BackoffBase > 0 {
		return n.cfg.BackoffBase
	}
	return 100 * time.Millisecond
}

func (n *Node) backoffMax() time.Duration {
	if n.cfg.BackoffMax > 0 {
		return n.cfg.BackoffMax
	}
	return 5 * time.Second
}

// startTailers launches one tailer goroutine per shard. Each applies
// cfg.Follow's shipped records into the pool and converges the node's
// epoch with the primary's; Close joins them.
func (n *Node) startTailers() {
	reg := n.cfg.Metrics
	reg.Help("rrc_replica_lag_records", "Per-shard replication lag: primary commit horizon minus local, in records.")
	reg.Help("rrc_replica_lag_seconds", "How long the shard has been behind the primary; 0 when caught up.")
	reg.Help("rrc_replica_applied_total", "Shipped records applied by the follower.")
	reg.Help("rrc_replica_stream_errors_total", "Stream poll failures (network, decode, apply) that triggered a retry.")
	reg.Help("rrc_replica_resyncs_total", "Shard reseeds from a primary snapshot after falling behind the retained WAL.")

	ctx, cancel := context.WithCancel(context.Background())
	n.cancel = cancel
	n.shards = make([]*shardTailer, n.pool.N())
	for i := range n.shards {
		st := &shardTailer{shard: i}
		lbl := fmt.Sprintf(`{shard="%d"}`, i)
		st.applied = reg.Counter("rrc_replica_applied_total" + lbl)
		st.streamErr = reg.Counter("rrc_replica_stream_errors_total" + lbl)
		st.resyncs = reg.Counter("rrc_replica_resyncs_total" + lbl)
		reg.GaugeFunc("rrc_replica_lag_records"+lbl, func() float64 {
			rec, _ := n.Lag(st.shard)
			return float64(rec)
		})
		reg.GaugeFunc("rrc_replica_lag_seconds"+lbl, func() float64 {
			_, behind := n.Lag(st.shard)
			return behind.Seconds()
		})
		n.shards[i] = st
		n.done.Add(1)
		go func() {
			defer n.done.Done()
			n.tail(ctx, st)
		}()
	}
}

// CaughtUp reports whether every shard's latest poll came back empty at
// the primary's horizon less than two long-poll waits ago, a wait being
// how long that empty poll was held. A primary that stops answering
// makes it false within two waits.
func (n *Node) CaughtUp() bool {
	now := time.Now().UnixNano()
	for _, st := range n.shards {
		if now >= st.quietUntil.Load() {
			return false
		}
	}
	return true
}

// tail is one shard's replication loop: poll, apply, converge epochs,
// repair the timeline when deposed, reseed when pruned past.
func (n *Node) tail(ctx context.Context, st *shardTailer) {
	backoff := n.backoffBase()
	for ctx.Err() == nil {
		madeProgress, err := n.pollOnce(ctx, st)
		if err != nil {
			st.quietUntil.Store(0)
			if ctx.Err() != nil {
				return
			}
			st.streamErr.Inc()
			log.Printf("replica: shard %d: %v (retrying in %s)", st.shard, err, backoff)
			select {
			case <-ctx.Done():
				return
			case <-time.After(backoff):
			}
			backoff = min(2*backoff, n.backoffMax())
			continue
		}
		backoff = n.backoffBase()
		if !madeProgress {
			// Caught up; the server long-polls for us, so loop straight
			// back around without a local sleep.
			continue
		}
	}
}

// pollOnce issues one stream request and applies its records. It
// returns whether any record was applied.
func (n *Node) pollOnce(ctx context.Context, st *shardTailer) (bool, error) {
	start := time.Now()
	from, err := n.pool.Shard(st.shard).NextLSN()
	if err != nil {
		return false, fmt.Errorf("local horizon: %w", err)
	}
	st.localNext.Store(from)

	q := url.Values{}
	q.Set("shard", strconv.Itoa(st.shard))
	q.Set("from", strconv.FormatUint(from, 10))
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, n.cfg.Follow+"/replica/stream?"+q.Encode(), nil)
	if err != nil {
		return false, err
	}
	req.Header.Set(EpochHeader, strconv.FormatUint(n.Meta().Epoch, 10))
	n.stampPartition(req)
	resp, err := tailClient.Do(req)
	if err != nil {
		return false, err
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()

	if resp.StatusCode != http.StatusOK {
		st.quietUntil.Store(0)
	}
	switch resp.StatusCode {
	case http.StatusOK:
		return n.applyStream(st, resp, start)
	case http.StatusPreconditionFailed:
		return false, n.handleEpochConflict(st, resp)
	case http.StatusGone:
		return false, n.reseed(ctx, st, resp)
	case http.StatusMisdirectedRequest:
		return false, n.partitionMismatch(resp)
	default:
		return false, fmt.Errorf("stream: primary returned %s", resp.Status)
	}
}

// stampPartition adds the follower's partition identity to an outbound
// replication request, when one is configured.
func (n *Node) stampPartition(req *http.Request) {
	if n.pool.Partition().Count >= 1 {
		req.Header.Set(PartitionHeader, n.pool.Partition().String())
	}
}

// partitionMismatch turns a 421 into the loudest error the tailer can
// produce: this node is pointed at another partition's primary, and no
// amount of retrying fixes a misconfiguration — only the operator can.
func (n *Node) partitionMismatch(resp *http.Response) error {
	var body ErrorBody
	hint := resp.Header.Get(PartitionHeader)
	if json.NewDecoder(resp.Body).Decode(&body) == nil && body.Partition != nil {
		hint = body.Partition.String()
	}
	return fmt.Errorf("MISCONFIGURED: primary %s owns partition %s but this node is %s — repoint -follow at our own partition's primary",
		n.cfg.Follow, hint, n.pool.Partition())
}

// applyStream decodes every frame in a 200 stream response to a poll
// sent at start and applies each run of consecutive frames, up to
// wal.DefaultReadBatch of them, with one ApplyReplicated: one write and
// one fsync per run. The local horizon and the applied counter move only
// once a run is durable.
func (n *Node) applyStream(st *shardTailer, resp *http.Response, start time.Time) (bool, error) {
	if h := resp.Header.Get(NextLSNHeader); h != "" {
		if v, err := strconv.ParseUint(h, 10, 64); err == nil {
			st.primaryNext.Store(v)
		}
	}
	var (
		run     [][]byte
		first   uint64 // LSN of run[0]
		applied bool
	)
	// flush applies the run collected so far and empties it, applied or not.
	flush := func() error {
		if len(run) == 0 {
			return nil
		}
		batch := run
		run = run[:0]
		k, err := n.pool.Shard(st.shard).ApplyReplicated(first, batch)
		if err != nil {
			return fmt.Errorf("apply lsn %d..%d: %w", first, first+uint64(len(batch))-1, err)
		}
		if k > 0 {
			applied = true
			st.applied.Add(int64(k))
		}
		first += uint64(len(batch))
		st.localNext.Store(first)
		return nil
	}
	frames := 0
	var err error
	for ; ; frames++ {
		lsn, payload, ferr := wal.ReadFrame(resp.Body, 0)
		if ferr == io.EOF {
			break
		}
		if ferr != nil {
			// A torn or corrupt frame: apply the whole frames before it,
			// then drop the response and re-resume from the local horizon.
			err = fmt.Errorf("stream frame: %w", ferr)
			break
		}
		if len(run) > 0 && (lsn != first+uint64(len(run)) || len(run) == wal.DefaultReadBatch) {
			if err = flush(); err != nil {
				break
			}
		}
		if len(run) == 0 {
			first = lsn
		}
		run = append(run, payload)
	}
	if aerr := flush(); aerr != nil {
		err = aerr
	}
	n.updateLagClock(st)
	if err != nil {
		return applied, err
	}
	until := int64(0)
	if frames == 0 && st.localNext.Load() >= st.primaryNext.Load() {
		until = time.Now().Add(2 * time.Since(start)).UnixNano()
	}
	st.quietUntil.Store(until)
	return applied, nil
}

// updateLagClock starts or clears the shard's time-behind clock from
// the current horizons.
func (n *Node) updateLagClock(st *shardTailer) {
	if st.localNext.Load() >= st.primaryNext.Load() {
		st.lagSince.Store(0)
	} else if st.lagSince.Load() == 0 {
		st.lagSince.Store(time.Now().UnixNano())
	}
}

// handleEpochConflict converges with a primary on a newer epoch. The
// epoch flip is node-wide, so the divergent-tail truncation must be
// too: every shard is cut at its own divergence LSN (from the adopted
// history) *before* the epoch is adopted and persisted — otherwise the
// first tailer to adopt would let the others stream cleanly over tails
// the new timeline never had. A primary *behind* us is not followed —
// it may be the deposed node we were promoted over; keep erroring
// until the operator repoints us.
func (n *Node) handleEpochConflict(st *shardTailer, resp *http.Response) error {
	var body ErrorBody
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return fmt.Errorf("epoch conflict: unreadable body: %w", err)
	}
	own := n.Meta().Epoch
	if body.Epoch <= own {
		return fmt.Errorf("primary epoch %d not above ours %d: refusing to follow a deposed primary", body.Epoch, own)
	}
	if body.Meta == nil {
		return fmt.Errorf("epoch conflict with %d: no meta to adopt", body.Epoch)
	}
	n.convergeMu.Lock()
	defer n.convergeMu.Unlock()
	if n.Meta().Epoch >= body.Epoch {
		return nil // another shard's tailer already converged the node
	}
	for i := 0; i < n.pool.N(); i++ {
		div, ok := body.Meta.DivergenceLSN(i, own)
		if !ok {
			continue
		}
		if err := n.pool.Shard(i).TruncateAndReload(div); err != nil {
			if errors.Is(err, wal.ErrPruned) {
				// Cannot rebuild below the divergence point locally; the
				// shard reseeds once its stream 410s. Converge anyway so
				// the next polls run on the right epoch.
				log.Printf("replica: shard %d: divergence %d below retained state, will reseed: %v",
					i, div, err)
				continue
			}
			return fmt.Errorf("truncate shard %d to %d: %w", i, div, err)
		}
	}
	adopted, err := n.adopt(*body.Meta)
	if err != nil {
		return fmt.Errorf("adopt epoch %d: %w", body.Meta.Epoch, err)
	}
	log.Printf("replica: shard %d: adopted epoch %d from primary (all shards truncated to the shared timeline)", st.shard, adopted.Epoch)
	return nil
}

// reseed replaces the shard's local state with the primary's newest
// snapshot after a 410: the records between our horizon and the
// primary's retained WAL are gone, so tailing cannot resume from here.
func (n *Node) reseed(ctx context.Context, st *shardTailer, gone *http.Response) error {
	st.resyncs.Inc()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		n.cfg.Follow+"/replica/snapshot?shard="+strconv.Itoa(st.shard), nil)
	if err != nil {
		return err
	}
	req.Header.Set(EpochHeader, strconv.FormatUint(n.Meta().Epoch, 10))
	n.stampPartition(req)
	resp, err := tailClient.Do(req)
	if err != nil {
		return fmt.Errorf("snapshot download: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("snapshot download: primary returned %s", resp.Status)
	}
	snapLSN, err := strconv.ParseUint(resp.Header.Get(SnapshotLSNHeader), 10, 64)
	if err != nil {
		return fmt.Errorf("snapshot download: bad %s: %w", SnapshotLSNHeader, err)
	}
	// Buffer before touching local state: a half-downloaded snapshot
	// must not cost us the quarantined previous timeline.
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("snapshot download: %w", err)
	}
	err = n.pool.Shard(st.shard).Reseed(snapLSN, func(dir string) error {
		return writeSnapshotFile(dir, snapLSN, bytes.NewReader(body))
	})
	if err != nil {
		return err
	}
	st.localNext.Store(snapLSN + 1)
	log.Printf("replica: shard %d: reseeded from primary snapshot at lsn %d", st.shard, snapLSN)
	return nil
}

// writeSnapshotFile lands a downloaded snapshot in dir under its
// canonical name, atomically, via the "replica.reseed" fault point.
func writeSnapshotFile(dir string, lsn uint64, body io.Reader) error {
	return atomicio.WriteFile(sessions.SnapshotPath(dir, lsn), "replica.reseed", func(w io.Writer) error {
		_, err := io.Copy(w, body)
		return err
	})
}
