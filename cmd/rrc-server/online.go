// Online ingestion-and-session layer: with -events-dir set, the server
// owns the per-user time windows the paper's preference function is
// computed over, instead of making every caller re-ship history.
//
//	POST /consume         → body {"user":0,"item":42}
//	                        reply {"lsn":17,"window":33}
//	POST /recommend/user  → body {"user":0,"n":5,"omega":10}
//	                        reply {"items":[...],"scores":[...]}
//	POST /admin/drain     → ?shard=i: flush shard i's final snapshot and
//	                        fence its appends (its users get 503 after)
//
// The layer is a shard pool (internal/shard): users are partitioned by
// hash over -shards independent failure domains, each with its own
// write-ahead log, session store, and snapshot generations. Every
// consumption is appended to the owning shard's WAL *before* it touches
// the in-memory window, so an acknowledged event survives a crash
// (always, under -fsync always; up to the unsynced suffix otherwise).
// Startup recovery = per-shard newest loadable snapshot + WAL tail
// replay, in parallel; /readyz stays 503 until every shard serves. A
// shard that panics or exhausts its append-failure streak trips its
// breaker and is restarted by a supervisor while the other shards keep
// serving; its users see 503 + Retry-After, never a hung or failed
// process.
package main

import (
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"time"

	"tsppr/internal/core"
	"tsppr/internal/obs"
	"tsppr/internal/rec"
	"tsppr/internal/replica"
	"tsppr/internal/rescache"
	"tsppr/internal/seq"
	"tsppr/internal/shard"
)

// onlineState is the server's handle on the shard pool plus the
// pool-aggregate gauges kept for dashboard continuity with the
// single-domain layout.
type onlineState struct {
	pool *shard.Pool
	// cache holds /recommend/user responses keyed by (user, Ω, N) and
	// versioned by consume LSN; nil when -response-cache=0. All cache
	// methods are nil-safe, so handlers call through unconditionally.
	cache *rescache.Cache
}

// newOnline opens the shard pool under opts.eventsDir and recovers
// every shard (snapshot + WAL tail) before returning. It is called
// before the listener starts; until it returns, /readyz reports 503.
func newOnline(opts serverOptions, m *core.Model) (*onlineState, error) {
	// The cache exists before the pool so the pool's store-reload hook
	// can close over it: any shard that replaces its session store
	// wholesale (supervised restart, truncate, reseed) may have regressed
	// per-user LSNs, which voids every LSN-versioned entry.
	var cache *rescache.Cache
	if opts.cacheEntries > 0 {
		cache = rescache.New(rescache.Config{MaxEntries: opts.cacheEntries, Metrics: opts.metrics})
	}
	pool, err := shard.Open(opts.eventsDir, shard.Config{
		Shards:        opts.shards,
		Partition:     opts.partition,
		OnStoreReload: func(int) { cache.Purge() },
		WindowCap:     opts.windowCap,
		NumUsers:      m.NumUsers(),
		NumItems:      m.NumItems(),
		Fsync:         opts.fsync,
		FsyncInterval: opts.fsyncInterval,
		SnapshotEvery: opts.snapshotEvery,
		Corrupt:       opts.corrupt,
		Metrics:       opts.metrics,
		FailThreshold: opts.shardFailThreshold,
		RestartBudget: opts.shardRestartBudget,
		BackoffBase:   opts.shardBackoffBase,
		BackoffMax:    opts.shardBackoffMax,
	})
	if err != nil {
		return nil, err
	}
	o := &onlineState{pool: pool, cache: cache}
	o.registerGauges(opts.metrics)
	return o, nil
}

// registerGauges exposes the pool's aggregate state on GET /metrics via
// pull gauges — read at scrape time, so the online hot paths carry no
// extra instrumentation. These are the pre-sharding families, now
// summed across shards so existing dashboards keep working; per-shard
// detail lives in the rrc_shard_* families the pool registers itself.
func (o *onlineState) registerGauges(reg *obs.Registry) {
	if reg == nil {
		return
	}
	sumStatus := func(f func(shard.Status) float64) func() float64 {
		return func() float64 {
			var total float64
			for _, st := range o.pool.Statuses() {
				total += f(st)
			}
			return total
		}
	}
	reg.Help("rrc_online_sessions", "Per-user session windows held in memory, all shards.")
	reg.GaugeFunc("rrc_online_sessions", sumStatus(func(st shard.Status) float64 { return float64(st.Sessions) }))
	reg.Help("rrc_online_applied_lsn", "Sum across shards of the highest WAL LSN applied to each session store.")
	reg.GaugeFunc("rrc_online_applied_lsn", sumStatus(func(st shard.Status) float64 { return float64(st.AppliedLSN) }))
	reg.Help("rrc_online_dropped_events", "Replayed events outside the model's user/item id bounds, dropped, all shards, cumulative.")
	reg.GaugeFunc("rrc_online_dropped_events", sumStatus(func(st shard.Status) float64 { return float64(st.Dropped) }))
	reg.Help("rrc_online_snapshots", "Session snapshots flushed, all shards, cumulative.")
	reg.GaugeFunc("rrc_online_snapshots", sumStatus(func(st shard.Status) float64 { return float64(st.Snapshots) }))
	reg.Help("rrc_online_snapshot_errors", "Failed session snapshot flushes, all shards, cumulative.")
	reg.GaugeFunc("rrc_online_snapshot_errors", sumStatus(func(st shard.Status) float64 { return float64(st.SnapshotErrs) }))
	reg.Help("rrc_wal_recovered_records", "WAL records replayed into the stores at startup, all shards.")
	reg.GaugeFunc("rrc_wal_recovered_records", func() float64 { return float64(o.pool.WALStats().RecoveredRecords) })
	reg.Help("rrc_wal_truncated_tails", "Torn WAL tails truncated at open, all shards.")
	reg.GaugeFunc("rrc_wal_truncated_tails", func() float64 { return float64(o.pool.WALStats().TruncatedTails) })
	reg.Help("rrc_wal_skipped_corrupt", "Corrupt WAL records quarantined under -wal-skip-corrupt, all shards.")
	reg.GaugeFunc("rrc_wal_skipped_corrupt", func() float64 { return float64(o.pool.WALStats().SkippedCorrupt) })
}

// ready reports whether every shard is serving.
func (o *onlineState) ready() bool { return o.pool.Ready() }

// close drains the pool: every serving shard flushes a final snapshot
// and closes its log; part of graceful shutdown, after the listener has
// drained.
func (o *onlineState) close() error { return o.pool.Close() }

// closeTimeout is close under a deadline: shards that cannot finish
// their final snapshot within d are abandoned (their WALs stay
// authoritative) and reported so the operator knows recovery will
// replay. d <= 0 means unbounded.
func (o *onlineState) closeTimeout(d time.Duration) ([]int, error) {
	return o.pool.CloseTimeout(d)
}

// writeOnlineErr maps an online-layer failure to its HTTP shape. A
// shard's UnavailableError carries its own Retry-After hint; any other
// append failure is a storage-state problem the caller should retry
// shortly — 503 either way, never 500 (not a bug) and never 404 (the
// endpoint exists).
func writeOnlineErr(w http.ResponseWriter, err error) {
	var ue *shard.UnavailableError
	if errors.As(err, &ue) {
		// Round the hint UP: advertising 6 for a 6.9s backoff invites a
		// guaranteed-rejected retry inside the supervisor's window.
		secs := int(math.Ceil(ue.RetryAfter.Seconds()))
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
		writeError(w, http.StatusServiceUnavailable, err)
		return
	}
	w.Header().Set("Retry-After", "1")
	writeError(w, http.StatusServiceUnavailable, fmt.Errorf("event not durable: %w", err))
}

// refuseForeignUser is the partition ownership gate on the keyed online
// endpoints: a node in a partitioned fleet must never apply (or answer
// from) a key another partition owns — a misrouted write here would be
// durable in the wrong pair's WAL, invisible to the owner, and
// unfindable later. The 421 carries the owning partition in the flat
// shape rrc-router folds into its view (and counts as a misdirect), so
// a topology/-partition disagreement is loud within one request.
func (s *server) refuseForeignUser(w http.ResponseWriter, user int) bool {
	part := s.online.pool.Partition()
	if part.Owns(user) {
		return false
	}
	owner := shard.UserShard(user, part.Count)
	w.Header().Set(replica.PartitionHeader, part.String())
	writeJSON(w, http.StatusMisdirectedRequest, map[string]any{
		"error":      fmt.Sprintf("user %d belongs to partition %d/%d; this node owns %s", user, owner, part.Count, part.String()),
		"partition":  owner,
		"partitions": part.Count,
	})
	return true
}

// consumeRequest is the POST /consume body.
type consumeRequest struct {
	User int `json:"user"`
	Item int `json:"item"`
}

// consumeResponse acknowledges a durable event. LSN is its position in
// the owning shard's write-ahead log; Window is the user's window
// length afterwards.
type consumeResponse struct {
	LSN    uint64 `json:"lsn"`
	Window int    `json:"window"`
}

func (s *server) handleConsume(w http.ResponseWriter, r *http.Request) {
	// Replication fencing comes before anything else: a standby or a
	// deposed primary must not acknowledge writes it cannot keep.
	if s.repl != nil {
		if err := s.repl.checkIngestEpoch(r); err != nil {
			// An epoch conflict resolves within about one router probe
			// round (the fleet converges on the new primary); tell the
			// caller when a re-pick is worth attempting.
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusPreconditionFailed, err)
			return
		}
		if err := s.repl.writeBlocked(); err != nil {
			w.Header().Set("Retry-After", "5")
			writeError(w, http.StatusServiceUnavailable, err)
			return
		}
	}
	var req consumeRequest
	if code, err := decodeJSON(w, r, 1<<16, &req); err != nil {
		writeError(w, code, err)
		return
	}
	m := s.currentModel()
	if req.User < 0 || req.User >= m.NumUsers() {
		writeError(w, http.StatusBadRequest, fmt.Errorf("user %d out of range [0,%d)", req.User, m.NumUsers()))
		return
	}
	if req.Item < 0 || req.Item >= m.NumItems() {
		writeError(w, http.StatusBadRequest, fmt.Errorf("item %d out of range [0,%d)", req.Item, m.NumItems()))
		return
	}
	if s.refuseForeignUser(w, req.User) {
		return
	}
	lsn, winLen, err := s.online.pool.Ingest(req.User, seq.Item(req.Item))
	if err != nil {
		// The event is NOT durable; the caller must retry.
		writeOnlineErr(w, err)
		return
	}
	// Coherence is carried by the LSN keying (the next read probes with
	// the advanced LSN and misses); dropping the dead entries now frees
	// their memory and makes the invalidation observable on /metrics.
	s.online.cache.InvalidateUser(req.User)
	writeJSON(w, http.StatusOK, consumeResponse{LSN: lsn, Window: winLen})
}

// recommendUserRequest is the POST /recommend/user body: like
// /recommend but the history lives server-side.
type recommendUserRequest struct {
	User  int  `json:"user"`
	N     int  `json:"n"`
	Omega *int `json:"omega,omitempty"`
}

func (s *server) handleRecommendUser(w http.ResponseWriter, r *http.Request) {
	var req recommendUserRequest
	if code, err := decodeJSON(w, r, 1<<16, &req); err != nil {
		writeError(w, code, err)
		return
	}
	eng := s.eng.Load()
	m := eng.Model()
	if req.User < 0 || req.User >= m.NumUsers() {
		writeError(w, http.StatusBadRequest, fmt.Errorf("user %d out of range [0,%d)", req.User, m.NumUsers()))
		return
	}
	n, omega, err := s.clampNOmega(req.N, req.Omega)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if s.refuseForeignUser(w, req.User) {
		return
	}
	cache := s.online.cache
	if cache != nil {
		// Cheap version probe first: the user's current applied LSN. An
		// entry cached under exactly that LSN is current by construction
		// — no window clone, no scoring. Probe errors (shard mid-restart)
		// fall through to the uncached path, which surfaces them.
		if lsn, ok, err := s.online.pool.UserLSN(req.User); err == nil && ok {
			// Non-nil empty buffers, not nil: an empty cached Top-N must
			// serialize as [] exactly like the uncached path's response,
			// and appending zero elements to nil would leave nil → null.
			if items, scores, hit := cache.Get(req.User, lsn, omega, n, []int{}, []float64{}); hit {
				s.items.Add(int64(len(items)))
				writeJSON(w, http.StatusOK, recommendResponse{Items: items, Scores: scores})
				return
			}
		}
	}
	// The epoch is sampled BEFORE the window clone: if a purge (model
	// swap, shard store reload) lands between the clone and the Put, the
	// fill must die with the state it was computed from.
	epoch := cache.Epoch()
	win, lsn, ok, err := s.online.pool.WindowCloneLSN(req.User)
	if err != nil {
		writeOnlineErr(w, err)
		return
	}
	if !ok {
		// Windows are never evicted, so the node that took the user's
		// writes answers 404 only for a user who never consumed. A
		// standby may just not have replicated the first event yet: that
		// is "come back", which the router retries elsewhere.
		if s.repl != nil && s.repl.following() {
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusServiceUnavailable, fmt.Errorf("no session for user %d on this standby yet", req.User))
			return
		}
		writeError(w, http.StatusNotFound, fmt.Errorf("no session for user %d (POST /consume first)", req.User))
		return
	}
	items, _ := win.Snapshot()
	rctx := &rec.Context{User: req.User, Window: win, History: items, Omega: omega}
	resp := s.score(r.Context(), eng, rctx, n)
	if !resp.Degraded {
		// Degraded answers come from the fallback scorer; caching one
		// would keep serving it after the primary recovers.
		cache.Put(epoch, req.User, lsn, omega, n, resp.Items, resp.Scores)
	}
	s.items.Add(int64(len(resp.Items)))
	writeJSON(w, http.StatusOK, resp)
}

// drainResponse is the POST /admin/drain reply.
type drainResponse struct {
	Shard int    `json:"shard"`
	State string `json:"state"`
}

// handleDrain gracefully stops one shard: final snapshot, appends
// fenced, its users answered 503 + Retry-After from then on. Used to
// quiesce a shard before copying its directory off the box.
func (s *server) handleDrain(w http.ResponseWriter, r *http.Request) {
	idx, err := strconv.Atoi(r.URL.Query().Get("shard"))
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("shard query parameter: %w", err))
		return
	}
	if idx < 0 || idx >= s.online.pool.N() {
		writeError(w, http.StatusBadRequest, fmt.Errorf("shard %d out of [0,%d)", idx, s.online.pool.N()))
		return
	}
	if err := s.online.pool.Drain(idx); err != nil {
		// Not currently drainable (tripped, recovering, failed): the
		// state conflict is the caller's to resolve, not a server fault.
		writeError(w, http.StatusConflict, err)
		return
	}
	writeJSON(w, http.StatusOK, drainResponse{Shard: idx, State: s.online.pool.Shard(idx).State().String()})
}

// errOnlineDisabled answers the online endpoints when -events-dir is
// not configured. 503 + Retry-After, not 404: the endpoints exist, this
// replica just cannot serve them, and a retrying client behind a mixed
// fleet should try again elsewhere rather than conclude the API is gone.
func (s *server) errOnlineDisabled(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Retry-After", "60")
	writeError(w, http.StatusServiceUnavailable, errors.New("online sessions unavailable: this replica runs without -events-dir"))
}
