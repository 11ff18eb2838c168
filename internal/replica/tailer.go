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
	"sync"
	"sync/atomic"
	"time"

	"tsppr/internal/atomicio"
	"tsppr/internal/obs"
	"tsppr/internal/sessions"
	"tsppr/internal/shard"
	"tsppr/internal/wal"
)

// tailClient carries every follower request. Its timeout bounds one
// long poll or one snapshot download.
var tailClient = &http.Client{Timeout: 30 * time.Second}

// Follower tails every shard of a primary, applying shipped records
// into Pool and converging its epoch/history with the primary's; the
// adopted meta lives in the epoch marker at Pool.Root(). Start launches
// one tailer goroutine per shard; Stop joins them.
type Follower struct {
	Primary string // primary base URL, e.g. http://10.0.0.1:8080
	Pool    *shard.Pool

	// Partition, when nonzero (Count >= 1), is stamped on every stream
	// and snapshot request so a primary owning a different slice of the
	// key space refuses us with 421 instead of shipping records whose
	// users this node will never serve.
	Partition shard.PartitionID

	// BackoffBase/BackoffMax shape the retry schedule on stream errors.
	// Defaults: 100ms / 5s.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// Metrics, when non-nil, receives the rrc_replica_* families.
	Metrics *obs.Registry

	mu         sync.Mutex
	meta       Meta
	convergeMu sync.Mutex // serializes whole-node epoch convergence
	cancel     context.CancelFunc
	done       sync.WaitGroup
	applied    *obs.Counter // set per shard in start; see shardTailer
	epochG     *obs.Gauge

	shards []*shardTailer
}

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

// Epoch returns the follower's current adopted epoch.
func (f *Follower) Epoch() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.meta.Epoch
}

// MetaSnapshot returns the follower's current adopted meta.
func (f *Follower) MetaSnapshot() Meta {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.meta
}

// Lag returns shard's current replication lag in records (primary
// horizon minus local) and how long the shard has been behind.
func (f *Follower) Lag(shard int) (records uint64, behind time.Duration) {
	st := f.shards[shard]
	p, l := st.primaryNext.Load(), st.localNext.Load()
	if p > l {
		records = p - l
	}
	if since := st.lagSince.Load(); since != 0 {
		behind = time.Since(time.Unix(0, since))
	}
	return records, behind
}

func (f *Follower) backoffBase() time.Duration {
	if f.BackoffBase > 0 {
		return f.BackoffBase
	}
	return 100 * time.Millisecond
}

func (f *Follower) backoffMax() time.Duration {
	if f.BackoffMax > 0 {
		return f.BackoffMax
	}
	return 5 * time.Second
}

// Start loads the persisted meta and launches one tailer per shard.
func (f *Follower) Start() error {
	m, err := LoadMeta(f.Pool.Root())
	if err != nil {
		return err
	}
	f.mu.Lock()
	f.meta = m
	f.mu.Unlock()

	n := f.Pool.N()
	f.shards = make([]*shardTailer, n)
	reg := f.Metrics
	reg.Help("rrc_replica_lag_records", "Per-shard replication lag: primary commit horizon minus local, in records.")
	reg.Help("rrc_replica_lag_seconds", "How long the shard has been behind the primary; 0 when caught up.")
	reg.Help("rrc_replica_applied_total", "Shipped records applied by the follower.")
	reg.Help("rrc_replica_stream_errors_total", "Stream poll failures (network, decode, apply) that triggered a retry.")
	reg.Help("rrc_replica_resyncs_total", "Shard reseeds from a primary snapshot after falling behind the retained WAL.")
	reg.Help("rrc_replica_epoch", "The node's current replication epoch.")
	f.epochG = reg.Gauge("rrc_replica_epoch")
	f.epochG.Set(float64(m.Epoch))

	ctx, cancel := context.WithCancel(context.Background())
	f.cancel = cancel
	for i := 0; i < n; i++ {
		st := &shardTailer{shard: i}
		lbl := fmt.Sprintf(`{shard="%d"}`, i)
		st.applied = reg.Counter("rrc_replica_applied_total" + lbl)
		st.streamErr = reg.Counter("rrc_replica_stream_errors_total" + lbl)
		st.resyncs = reg.Counter("rrc_replica_resyncs_total" + lbl)
		reg.GaugeFunc("rrc_replica_lag_records"+lbl, func() float64 {
			rec, _ := f.Lag(st.shard)
			return float64(rec)
		})
		reg.GaugeFunc("rrc_replica_lag_seconds"+lbl, func() float64 {
			_, behind := f.Lag(st.shard)
			return behind.Seconds()
		})
		f.shards[i] = st
		f.done.Add(1)
		go func() {
			defer f.done.Done()
			f.tail(ctx, st)
		}()
	}
	return nil
}

// Stop cancels every tailer and waits for them to exit.
func (f *Follower) Stop() {
	if f.cancel != nil {
		f.cancel()
		f.done.Wait()
	}
}

// CaughtUp reports whether every shard's latest poll came back empty at
// the primary's horizon less than two long-poll waits ago, a wait being
// how long that empty poll was held. A primary that stops answering
// makes it false within two waits.
func (f *Follower) CaughtUp() bool {
	now := time.Now().UnixNano()
	for _, st := range f.shards {
		if now >= st.quietUntil.Load() {
			return false
		}
	}
	return true
}

// tail is one shard's replication loop: poll, apply, converge epochs,
// repair the timeline when deposed, reseed when pruned past.
func (f *Follower) tail(ctx context.Context, st *shardTailer) {
	backoff := f.backoffBase()
	for ctx.Err() == nil {
		madeProgress, err := f.pollOnce(ctx, st)
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
			backoff = min(2*backoff, f.backoffMax())
			continue
		}
		backoff = f.backoffBase()
		if !madeProgress {
			// Caught up; the server long-polls for us, so loop straight
			// back around without a local sleep.
			continue
		}
	}
}

// pollOnce issues one stream request and applies its records. It
// returns whether any record was applied.
func (f *Follower) pollOnce(ctx context.Context, st *shardTailer) (bool, error) {
	start := time.Now()
	from, err := f.Pool.Shard(st.shard).NextLSN()
	if err != nil {
		return false, fmt.Errorf("local horizon: %w", err)
	}
	st.localNext.Store(from)

	q := url.Values{}
	q.Set("shard", strconv.Itoa(st.shard))
	q.Set("from", strconv.FormatUint(from, 10))
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, f.Primary+"/replica/stream?"+q.Encode(), nil)
	if err != nil {
		return false, err
	}
	req.Header.Set(EpochHeader, strconv.FormatUint(f.Epoch(), 10))
	f.stampPartition(req)
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
		return f.applyStream(st, resp, start)
	case http.StatusPreconditionFailed:
		return false, f.handleEpochConflict(st, resp)
	case http.StatusGone:
		return false, f.reseed(ctx, st, resp)
	case http.StatusMisdirectedRequest:
		return false, f.partitionMismatch(resp)
	default:
		return false, fmt.Errorf("stream: primary returned %s", resp.Status)
	}
}

// stampPartition adds the follower's partition identity to an outbound
// replication request, when one is configured.
func (f *Follower) stampPartition(req *http.Request) {
	if f.Partition.Count >= 1 {
		req.Header.Set(PartitionHeader, f.Partition.String())
	}
}

// partitionMismatch turns a 421 into the loudest error the tailer can
// produce: this node is pointed at another partition's primary, and no
// amount of retrying fixes a misconfiguration — only the operator can.
func (f *Follower) partitionMismatch(resp *http.Response) error {
	var body ErrorBody
	hint := resp.Header.Get(PartitionHeader)
	if json.NewDecoder(resp.Body).Decode(&body) == nil && body.Partition != nil {
		hint = body.Partition.String()
	}
	return fmt.Errorf("MISCONFIGURED: primary %s owns partition %s but this node is %s — repoint -follow at our own partition's primary",
		f.Primary, hint, f.Partition)
}

// applyStream decodes and applies every frame in a 200 stream response
// to a poll sent at start.
func (f *Follower) applyStream(st *shardTailer, resp *http.Response, start time.Time) (bool, error) {
	if h := resp.Header.Get(NextLSNHeader); h != "" {
		if v, err := strconv.ParseUint(h, 10, 64); err == nil {
			st.primaryNext.Store(v)
		}
	}
	applied, frames := false, 0
	for ; ; frames++ {
		lsn, payload, err := wal.ReadFrame(resp.Body, 0)
		if err == io.EOF {
			break
		}
		if err != nil {
			// A torn or corrupt frame: drop the response and re-resume
			// from the local horizon. Anything applied so far is durable.
			f.updateLagClock(st)
			return applied, fmt.Errorf("stream frame: %w", err)
		}
		ok, err := f.Pool.Shard(st.shard).ApplyReplicated(lsn, payload)
		if err != nil {
			f.updateLagClock(st)
			return applied, fmt.Errorf("apply lsn %d: %w", lsn, err)
		}
		if ok {
			applied = true
			st.applied.Inc()
		}
		st.localNext.Store(lsn + 1)
	}
	f.updateLagClock(st)
	until := int64(0)
	if frames == 0 && st.localNext.Load() >= st.primaryNext.Load() {
		until = time.Now().Add(2 * time.Since(start)).UnixNano()
	}
	st.quietUntil.Store(until)
	return applied, nil
}

// updateLagClock starts or clears the shard's time-behind clock from
// the current horizons.
func (f *Follower) updateLagClock(st *shardTailer) {
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
func (f *Follower) handleEpochConflict(st *shardTailer, resp *http.Response) error {
	var body ErrorBody
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return fmt.Errorf("epoch conflict: unreadable body: %w", err)
	}
	own := f.Epoch()
	if body.Epoch <= own {
		return fmt.Errorf("primary epoch %d not above ours %d: refusing to follow a deposed primary", body.Epoch, own)
	}
	if body.Meta == nil {
		return fmt.Errorf("epoch conflict with %d: no meta to adopt", body.Epoch)
	}
	f.convergeMu.Lock()
	defer f.convergeMu.Unlock()
	if f.Epoch() >= body.Epoch {
		return nil // another shard's tailer already converged the node
	}
	for i := 0; i < f.Pool.N(); i++ {
		div, ok := body.Meta.DivergenceLSN(i, own)
		if !ok {
			continue
		}
		if err := f.Pool.Shard(i).TruncateAndReload(div); err != nil {
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
	f.mu.Lock()
	adopted, err := f.meta.Adopt(*body.Meta)
	if err == nil {
		err = adopted.Store(f.Pool.Root())
	}
	if err == nil {
		f.meta = adopted
	}
	f.mu.Unlock()
	if err != nil {
		return fmt.Errorf("adopt epoch %d: %w", body.Meta.Epoch, err)
	}
	f.epochG.Set(float64(adopted.Epoch))
	log.Printf("replica: shard %d: adopted epoch %d from primary (all shards truncated to the shared timeline)", st.shard, adopted.Epoch)
	return nil
}

// reseed replaces the shard's local state with the primary's newest
// snapshot after a 410: the records between our horizon and the
// primary's retained WAL are gone, so tailing cannot resume from here.
func (f *Follower) reseed(ctx context.Context, st *shardTailer, gone *http.Response) error {
	st.resyncs.Inc()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		f.Primary+"/replica/snapshot?shard="+strconv.Itoa(st.shard), nil)
	if err != nil {
		return err
	}
	req.Header.Set(EpochHeader, strconv.FormatUint(f.Epoch(), 10))
	f.stampPartition(req)
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
	err = f.Pool.Shard(st.shard).Reseed(snapLSN, func(dir string) error {
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
