// Online ingestion-and-session layer: the server owns the per-user time
// windows the paper's preference function is computed over, under
// -events-dir, instead of making every caller re-ship history.
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
package serve

import (
	"errors"
	"fmt"
	"log"
	"math"
	"net/http"
	"strconv"

	"tsppr/internal/core"
	"tsppr/internal/rec"
	"tsppr/internal/replica"
	"tsppr/internal/rescache"
	"tsppr/internal/seq"
	"tsppr/internal/shard"
)

// openOnline opens the shard pool under Options.EventsDir and recovers
// every shard (snapshot + WAL tail), sized by the boot model m, then
// takes the replication role. On error nothing stays open.
func (s *Server) openOnline(m *core.Model) error {
	// The cache exists before the pool so the pool's store-reload hook
	// can purge it: any shard that replaces its session store wholesale
	// (supervised restart, truncate, reseed) may have regressed per-user
	// LSNs, which voids every LSN-versioned entry.
	if s.opts.CacheEntries > 0 {
		s.cache = rescache.New(rescache.Config{MaxEntries: s.opts.CacheEntries, Metrics: s.reg})
	}
	pool, err := shard.Open(s.opts.EventsDir, shard.Config{
		Shards:        s.opts.Shards,
		Partition:     s.opts.Partition,
		OnStoreReload: func(int) { s.cache.Purge() },
		WindowCap:     m.Extractor.WindowCap(),
		NumUsers:      m.NumUsers(),
		NumItems:      m.NumItems(),
		Fsync:         s.opts.Fsync,
		SnapshotEvery: s.opts.SnapshotEvery,
		Metrics:       s.reg,
		FailThreshold: s.opts.shardFailThreshold,
		RestartBudget: s.opts.shardRestartBudget,
		BackoffBase:   s.opts.shardBackoffBase,
		BackoffMax:    s.opts.shardBackoffMax,
	})
	if err != nil {
		return err
	}
	s.pool = pool
	s.registerOnlineGauges()
	var sessionsTotal, replayed int
	for i := 0; i < pool.N(); i++ {
		sessionsTotal += pool.Shard(i).Status().Sessions
		replayed += pool.Shard(i).RecoverStats().Replayed
	}
	log.Printf("recovered %d sessions across %d shard(s) (%d replayed records, %d torn tail(s) truncated) from %s",
		sessionsTotal, pool.N(), replayed, pool.WALStats().TruncatedTails, s.opts.EventsDir)
	s.repl, err = replica.Open(pool, replica.Config{
		Follow:      s.opts.FollowURL,
		Peers:       s.opts.Peers,
		Wait:        s.opts.replWait,
		BackoffBase: s.opts.replBackoffBase,
		BackoffMax:  s.opts.replBackoffMax,
		Metrics:     s.reg,
	})
	if err != nil {
		pool.Close()
		return err
	}
	return nil
}

// registerOnlineGauges exposes the pool's aggregate state on GET
// /metrics via pull gauges — read at scrape time, so the online hot
// paths carry no extra instrumentation. These are the pre-sharding
// families, now summed across shards so existing dashboards keep
// working; per-shard detail lives in the rrc_shard_* families the pool
// registers itself.
func (s *Server) registerOnlineGauges() {
	reg, pool := s.reg, s.pool
	sumStatus := func(f func(shard.Status) float64) func() float64 {
		return func() float64 {
			var total float64
			for _, st := range pool.Statuses() {
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
	reg.Help("rrc_wal_recovered_records", "WAL records each shard's most recent recovery replayed into its store, all shards.")
	reg.GaugeFunc("rrc_wal_recovered_records", sumStatus(func(st shard.Status) float64 { return float64(st.Replayed) }))
	reg.Help("rrc_wal_truncated_tails", "Torn WAL tails truncated at open, all shards.")
	reg.GaugeFunc("rrc_wal_truncated_tails", func() float64 { return float64(pool.WALStats().TruncatedTails) })
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
func (s *Server) refuseForeignUser(w http.ResponseWriter, user int) bool {
	part := s.pool.Partition()
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

func (s *Server) handleConsume(w http.ResponseWriter, r *http.Request) {
	// Replication fencing comes before anything else: a standby or a
	// deposed primary must not acknowledge writes it cannot keep.
	if code, err := s.repl.AdmitWrite(r.Header.Get(replica.EpochHeader)); err != nil {
		// An epoch conflict (412) resolves within about one router probe
		// round (the fleet converges on the new primary); tell the
		// caller when a re-pick is worth attempting.
		retry := "5"
		if code == http.StatusPreconditionFailed {
			retry = "1"
		}
		w.Header().Set("Retry-After", retry)
		writeError(w, code, err)
		return
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
	lsn, winLen, err := s.pool.Ingest(req.User, seq.Item(req.Item))
	if err != nil {
		// The event is NOT durable; the caller must retry.
		writeOnlineErr(w, err)
		return
	}
	// Coherence is carried by the LSN keying (the next read probes with
	// the advanced LSN and misses); dropping the dead entries now frees
	// their memory and makes the invalidation observable on /metrics.
	s.cache.InvalidateUser(req.User)
	writeJSON(w, http.StatusOK, consumeResponse{LSN: lsn, Window: winLen})
}

// recommendUserRequest is the POST /recommend/user body: like
// /recommend but the history lives server-side.
type recommendUserRequest struct {
	User  int  `json:"user"`
	N     int  `json:"n"`
	Omega *int `json:"omega,omitempty"`
}

func (s *Server) handleRecommendUser(w http.ResponseWriter, r *http.Request) {
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
	n, omega, err := clampNOmega(m, req.N, req.Omega)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if s.refuseForeignUser(w, req.User) {
		return
	}
	cache := s.cache
	if cache != nil {
		// Cheap version probe first: the user's current applied LSN. An
		// entry cached under exactly that LSN is current by construction
		// — no window clone, no scoring. Probe errors (shard mid-restart)
		// fall through to the uncached path, which surfaces them.
		if lsn, ok, err := s.pool.UserLSN(req.User); err == nil && ok {
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
	win, lsn, ok, err := s.pool.WindowCloneLSN(req.User)
	if err != nil {
		writeOnlineErr(w, err)
		return
	}
	if !ok {
		// Windows are never evicted, so the node that took the user's
		// writes answers 404 only for a user who never consumed. A
		// standby may just not have replicated the first event yet: that
		// is "come back", which the router retries elsewhere.
		if s.repl.Following() {
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusServiceUnavailable, fmt.Errorf("no session for user %d on this standby yet", req.User))
			return
		}
		writeError(w, http.StatusNotFound, fmt.Errorf("no session for user %d (POST /consume first)", req.User))
		return
	}
	resp, err := s.score(r.Context(), eng, &rec.Context{User: req.User, Window: win, Omega: omega}, n)
	if err != nil {
		writeRecommendErr(w, err)
		return
	}
	cache.Put(epoch, req.User, lsn, omega, n, resp.Items, resp.Scores)
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
func (s *Server) handleDrain(w http.ResponseWriter, r *http.Request) {
	idx, err := strconv.Atoi(r.URL.Query().Get("shard"))
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("shard query parameter: %w", err))
		return
	}
	if idx < 0 || idx >= s.pool.N() {
		writeError(w, http.StatusBadRequest, fmt.Errorf("shard %d out of [0,%d)", idx, s.pool.N()))
		return
	}
	if err := s.pool.Drain(idx); err != nil {
		// Not currently drainable (tripped, recovering, failed): the
		// state conflict is the caller's to resolve, not a server fault.
		writeError(w, http.StatusConflict, err)
		return
	}
	writeJSON(w, http.StatusOK, drainResponse{Shard: idx, State: s.pool.Shard(idx).State().String()})
}

// promoteResponse is the POST /admin/promote reply.
type promoteResponse struct {
	Epoch uint64 `json:"epoch"`
	Role  string `json:"role"`
}

// handlePromote flips an unfenced standby into the primary role under a
// bumped epoch; anything else is 409.
func (s *Server) handlePromote(w http.ResponseWriter, _ *http.Request) {
	m, err := s.repl.Promote()
	if err != nil {
		writeError(w, http.StatusConflict, err)
		return
	}
	writeJSON(w, http.StatusOK, promoteResponse{Epoch: m.Epoch, Role: "primary"})
}
