// Package serve is one rrc-server node: it serves online RRC
// recommendations from a trained TS-PPR model over a small JSON HTTP API.
// New builds a node and Close stops it; cmd/rrc-server adds only flags,
// signals and the listener.
//
// Endpoints:
//
//	GET  /healthz          → {"status":"ok"} while the process is alive
//	GET  /readyz           → 200 once the model is loaded and every
//	                         shard serves — wire this one into load
//	                         balancers
//	GET  /metrics          → Prometheus text exposition: request, resilience,
//	                         engine, WAL, shard and replication families
//	POST /recommend        → body {"user":0,"history":[1,2,3,...],"n":5,"omega":10}
//	                         reply {"items":[...],"scores":[...]}
//	POST /recommend/batch  → body {"requests":[{...},{...}]}
//	                         reply {"responses":[{...}|{"error":...},...]},
//	                         entries scored in parallel (bounded fan-out)
//	POST /consume          → body {"user":0,"item":42}
//	                         append one consumption durably, advance W_ut
//	POST /recommend/user   → body {"user":0,"n":5}
//	                         rank from the server-held window
//
// Every node owns the per-user windows under its events dir: events
// POSTed to /consume are appended to a crash-recoverable write-ahead log
// (fsync policy via -fsync) before they touch memory, periodic snapshots
// bound recovery time, and /recommend/user ranks from the stored window
// with no history payload. The two stateless endpoints instead take the
// user's recent consumption history from the caller (most recent last),
// restore its last |W| events as the time window and rank the
// reconsumable candidates.
//
// Resilience: every request runs under panic recovery and a deadline; a
// concurrency semaphore sheds load with 429 + Retry-After once saturated.
// Every answer is the TS-PPR model's: a scorer panic is a 500, and a
// request whose deadline passed before scoring is a 503 + Retry-After,
// both of which rrc-router retries on another node. A reload (SIGHUP in
// rrc-server) swaps the model file in with validate-before-swap — a bad
// file on disk never displaces the serving model.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"tsppr/internal/core"
	"tsppr/internal/engine"
	"tsppr/internal/faultinject"
	"tsppr/internal/obs"
	"tsppr/internal/rec"
	"tsppr/internal/replica"
	"tsppr/internal/rescache"
	"tsppr/internal/router"
	"tsppr/internal/seq"
	"tsppr/internal/shard"
	"tsppr/internal/wal"
)

// Options configures a node. EventsDir is required; other zero fields
// pick the defaults New applies or defer to the shard, WAL and replica
// defaults.
type Options struct {
	ModelPath string // file a reload re-reads; "" refuses reloads

	MaxInFlight int           // semaphore size; 0 → 64
	ReqTimeout  time.Duration // per-request deadline; 0 → 2s

	// Online sessions.
	EventsDir     string            // root of the shard pool's WALs and snapshots; required
	CacheEntries  int               // /recommend/user response-cache bound; 0 disables
	Shards        int               // online failure domains; 0 → 1
	Partition     shard.PartitionID // user-key slice this node owns; zero → 0/1 (whole key space)
	Fsync         wal.SyncPolicy
	SnapshotEvery int

	// Replication plane.
	FollowURL string   // "" → primary role
	Peers     []string // primary: startup epoch check against the fleet

	// Shard supervisor and follower tuning, set only by tests to keep
	// chaos runs fast.
	shardFailThreshold int
	shardRestartBudget int
	shardBackoffBase   time.Duration
	shardBackoffMax    time.Duration
	replBackoffBase    time.Duration // follower tailer retry backoff; 0 → 100ms
	replBackoffMax     time.Duration
	replWait           time.Duration // stream long-poll hold; 0 → 2s
}

// Server is one node. It is an http.Handler over every endpoint.
type Server struct {
	opts Options
	// eng is the serving scoring engine over the current model. A reload
	// hot-swaps the whole engine (model + precomputed effective feature
	// weights + fresh scratch pool) in one atomic store, so in-flight
	// requests finish on the engine they started with.
	eng atomic.Pointer[engine.Engine]
	sem chan struct{}
	// pool is the online shard pool under Options.EventsDir.
	pool *shard.Pool
	// cache holds /recommend/user responses keyed by (user, Ω, N) and
	// versioned by consume LSN; nil when CacheEntries is 0. All cache
	// methods are nil-safe, so handlers call through unconditionally.
	cache   *rescache.Cache
	repl    *replica.Node // owns role, epoch, fencing
	handler http.Handler

	// reg is the process metric registry (GET /metrics); the counter
	// handles below are series registered on it by initMetrics.
	// Per-endpoint request/error/latency series live behind instrument.
	reg            *obs.Registry
	items          *obs.Counter // items returned across recommend endpoints
	panics         *obs.Counter // panics absorbed (handlers and batch entries)
	timeouts       *obs.Counter // deadlines expired before scoring, answered 503
	shed           *obs.Counter // requests rejected with 429
	reloads        *obs.Counter // successful model swaps
	batchEntryErrs *obs.Counter // failed /recommend/batch entries
	modelBytes     *obs.Gauge   // core.Model.ResidentBytes of the serving model
}

// New builds a node over m: it opens the shard pool under
// Options.EventsDir and recovers every shard (snapshot + WAL tail) before
// returning, then takes the replication role Options.FollowURL picks.
// Stop it with Close.
func New(m *core.Model, opts Options) (*Server, error) {
	if opts.EventsDir == "" {
		return nil, errors.New("serve: Options.EventsDir is required: a node ranks from the per-user windows it keeps there")
	}
	if opts.MaxInFlight <= 0 {
		opts.MaxInFlight = 64
	}
	if opts.ReqTimeout <= 0 {
		opts.ReqTimeout = 2 * time.Second
	}
	s := &Server{opts: opts, sem: make(chan struct{}, opts.MaxInFlight)}
	s.initMetrics()
	s.swapEngine(m)
	if err := s.openOnline(m); err != nil {
		return nil, err
	}
	s.handler = s.routes()
	return s, nil
}

// Close stops the node in shutdown order: the follower tailers join, so
// nothing applies into the pool while it drains; then every shard
// flushes a final snapshot and closes its log. Shards that cannot finish
// within timeout are abandoned and returned in missed: their WALs stay
// authoritative, so recovery replays them. timeout <= 0 waits for every
// shard. Close is safe to repeat.
func (s *Server) Close(timeout time.Duration) (missed []int, err error) {
	s.repl.Close()
	return s.pool.CloseTimeout(timeout)
}

// ServeHTTP serves every endpoint through the node's middleware.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.handler.ServeHTTP(w, r)
}

// swapEngine publishes a fresh engine over m. It records into the same
// registry series as the engine it replaces.
func (s *Server) swapEngine(m *core.Model) {
	eng := engine.New(m)
	eng.Instrument(s.reg)
	s.eng.Store(eng)
	s.modelBytes.Set(float64(m.ResidentBytes()))
}

// currentModel returns the model behind the serving engine.
func (s *Server) currentModel() *core.Model { return s.eng.Load().Model() }

func (s *Server) routes() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /readyz", s.handleReady)
	mux.Handle("GET /metrics", s.reg.Handler())
	mux.Handle("POST /recommend",
		s.harden(s.instrument("/recommend", http.HandlerFunc(s.handleRecommend))))
	mux.Handle("POST /recommend/batch",
		s.harden(s.instrument("/recommend/batch", http.HandlerFunc(s.handleBatch))))
	mux.Handle("POST /consume",
		s.harden(s.instrument("/consume", http.HandlerFunc(s.handleConsume))))
	mux.Handle("POST /recommend/user",
		s.harden(s.instrument("/recommend/user", http.HandlerFunc(s.handleRecommendUser))))
	// Admin plane: not hardened (a drain must not be shed under load)
	// and not instrumented (it is not traffic).
	mux.HandleFunc("POST /admin/drain", s.handleDrain)
	s.repl.Register(mux)
	mux.HandleFunc("POST /admin/promote", s.handlePromote)
	return s.recovered(mux)
}

// recovered is the outermost middleware: a panic anywhere in request
// handling becomes a 500 and a counter bump instead of a dead process.
func (s *Server) recovered(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if p := recover(); p != nil {
				// The instrument middleware already counted the error;
				// this layer owns the panic counter and the 500.
				s.logPanic(r.URL.Path, p)
				// Best effort: if the handler already wrote a status this
				// is a no-op superfluous-header log, not a second panic.
				writeError(w, http.StatusInternalServerError, errors.New("internal error"))
			}
		}()
		next.ServeHTTP(w, r)
	})
}

// logPanic counts an absorbed panic and logs it with its stack.
func (s *Server) logPanic(path string, p any) {
	s.panics.Inc()
	log.Printf("rrc-server: panic serving %s: %v\n%s", path, p, debug.Stack())
}

// harden wraps the scoring endpoints with the concurrency semaphore
// (load-shedding with 429 + Retry-After when saturated) and the
// per-request deadline: the server default, lowered by a propagated
// X-RRC-Deadline-Ms header when a front end (rrc-router) has less
// time left than we would grant ourselves. The header can only
// shorten the deadline — a client cannot buy more server time than
// -request-timeout allows.
func (s *Server) harden(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case s.sem <- struct{}{}:
			defer func() { <-s.sem }()
		default:
			s.shed.Inc()
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusTooManyRequests, errors.New("server saturated, retry later"))
			return
		}
		timeout := s.opts.ReqTimeout
		if raw := r.Header.Get(router.DeadlineHeader); raw != "" {
			if ms, err := strconv.ParseInt(raw, 10, 64); err == nil && ms > 0 {
				if d := time.Duration(ms) * time.Millisecond; d < timeout {
					timeout = d
				}
			}
		}
		ctx, cancel := context.WithTimeout(r.Context(), timeout)
		defer cancel()
		next.ServeHTTP(w, r.WithContext(ctx))
	})
}

// handleHealth reports liveness only: the process is up and serving.
func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// readyResponse is the GET /readyz reply. Shards lists every shard's
// lifecycle state (indexed by shard), so an orchestrator can tell "one
// shard restarting" from "down".
type readyResponse struct {
	Status string   `json:"status"`
	Shards []string `json:"shards,omitempty"`
	// Partition is the user-key slice this node owns. rrc-router probes
	// it to catch a node whose -partition disagrees with the topology
	// file before any traffic is misrouted.
	Partition *shard.PartitionID `json:"partition,omitempty"`
	// Replication reports the node's role, epoch, fence, and (follower)
	// lag.
	Replication *replica.Status `json:"replication,omitempty"`
}

// handleReady reports readiness: a loaded model and every shard
// serving. Load balancers should route on this, so a replica with a
// recovering shard keeps serving what it can but stops attracting new
// traffic.
func (s *Server) handleReady(w http.ResponseWriter, _ *http.Request) {
	resp := readyResponse{Status: "ready"}
	code := http.StatusOK
	for _, st := range s.pool.States() {
		resp.Shards = append(resp.Shards, st.String())
	}
	part := s.pool.Partition()
	resp.Partition = &part
	if !s.pool.Ready() {
		resp.Status, code = "recovering", http.StatusServiceUnavailable
	}
	st := s.repl.Status()
	resp.Replication = &st
	if code == http.StatusOK {
		switch {
		case st.Fenced:
			// Reads still serve, but a deposed primary must stop
			// attracting routed traffic until it rejoins.
			resp.Status, code = "fenced", http.StatusServiceUnavailable
		case st.Role == "follower":
			resp.Status = "following"
		}
	}
	if code != http.StatusOK {
		// Recovering and fenced are both states a prober
		// should re-check shortly, not back off from for minutes.
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, code, resp)
}

// reload re-reads the model file and swaps it in atomically, but only
// after it parses, checksums, and validates — a truncated or NaN-ridden
// file, or one of another |W| or id universe, never displaces the serving
// model.
func (s *Server) reload() error {
	if s.opts.ModelPath == "" {
		return errors.New("no model path configured")
	}
	m, err := core.LoadServingFile(s.opts.ModelPath)
	if err != nil {
		return err
	}
	if err := m.Validate(); err != nil {
		return err
	}
	// The shard pool was sized from the boot model: only Ω may change.
	if w, cur := m.Extractor.WindowCap(), s.currentModel(); w != cur.Extractor.WindowCap() || m.NumUsers() != cur.NumUsers() || m.NumItems() != cur.NumItems() {
		return fmt.Errorf("model has |W| = %d, %d users, %d items; serving |W| = %d, %d users, %d items: a new |W| or id universe needs a restart",
			w, m.NumUsers(), m.NumItems(), cur.Extractor.WindowCap(), cur.NumUsers(), cur.NumItems())
	}
	// Validate precomputed the effective feature weights, so the first
	// request after the swap is already on the two-dot-product path.
	s.swapEngine(m)
	// The swap changed every score under unchanged window LSNs, so the
	// response cache must drop wholesale — after the store, so a fill
	// racing the swap is caught by the epoch bump either way.
	s.cache.Purge()
	s.reloads.Inc()
	return nil
}

// WatchReload performs a hot reload for every signal delivered on sig,
// keeping the current model when the file on disk is rejected.
func (s *Server) WatchReload(sig <-chan os.Signal) {
	for range sig {
		if err := s.reload(); err != nil {
			log.Printf("rrc-server: reload rejected, keeping current model: %v", err)
			continue
		}
		m := s.currentModel()
		log.Printf("rrc-server: reloaded model (users=%d items=%d K=%d F=%d |W|=%d Ω=%d)",
			m.NumUsers(), m.NumItems(), m.K, m.F, m.Extractor.WindowCap(), m.Extractor.Omega())
	}
}

// RecommendRequest and BatchRequest name the two stateless request
// bodies outside the package, for DecodeBody. They are aliases: the
// declared names stay recommendRequest and batchRequest, which
// encoding/json's type-mismatch text spells (wireTypeError).
type (
	RecommendRequest = recommendRequest
	BatchRequest     = batchRequest
)

// recommendRequest is the POST /recommend body.
type recommendRequest struct {
	User    int   `json:"user"`
	History []int `json:"history"`
	N       int   `json:"n"`
	Omega   *int  `json:"omega,omitempty"`
}

// recommendResponse is the POST /recommend reply.
type recommendResponse struct {
	Items  []int     `json:"items"`
	Scores []float64 `json:"scores"`
}

// decodeJSON decodes a size-capped JSON body, distinguishing an oversized
// body (413) from a malformed one (400).
func decodeJSON(w http.ResponseWriter, r *http.Request, limit int64, v any) (int, error) {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			return http.StatusRequestEntityTooLarge, fmt.Errorf("request body over %d bytes", mbe.Limit)
		}
		return http.StatusBadRequest, wireTypeError(err)
	}
	return http.StatusOK, nil
}

func (s *Server) handleRecommend(w http.ResponseWriter, r *http.Request) {
	var req recommendRequest
	if code, err := decodeStateless(w, r, 1<<22, &req); err != nil {
		writeError(w, code, err)
		return
	}
	resp, err := s.recommend(r.Context(), req)
	if err != nil {
		writeRecommendErr(w, err)
		return
	}
	s.items.Add(int64(len(resp.Items)))
	writeJSON(w, http.StatusOK, resp)
}

// writeRecommendErr answers a failed recommend: a deadline that expired
// before scoring is 503 + Retry-After, which rrc-router retries on
// another node; anything else is the caller's request at fault.
func writeRecommendErr(w http.ResponseWriter, err error) {
	if errors.Is(err, errDeadline) {
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, err)
		return
	}
	writeError(w, http.StatusBadRequest, err)
}

// batchRequest is the POST /recommend/batch body.
type batchRequest struct {
	Requests []recommendRequest `json:"requests"`
}

// batchEntry is one element of the batch reply: either a response or an
// error, never both.
type batchEntry struct {
	Items  []int     `json:"items,omitempty"`
	Scores []float64 `json:"scores,omitempty"`
	Error  string    `json:"error,omitempty"`
}

// batchResponse is the POST /recommend/batch reply, parallel to the
// request slice.
type batchResponse struct {
	Responses []batchEntry `json:"responses"`
}

const maxBatch = 256

// batchParallelism bounds the concurrent per-entry fan-out of one batch
// request. The engine is safe for concurrent use (pooled scratch), so
// entries score in parallel; the bound keeps one large batch from
// monopolizing every core while singleton requests wait.
var batchParallelism = min(8, runtime.GOMAXPROCS(0))

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	// Error accounting discipline: whole-request failures (bad JSON,
	// bad batch size) are written as 4xx and counted ONCE by the
	// instrument middleware's status check. Per-entry failures leave the
	// status 200 — invisible to the middleware — so each is counted
	// here, exactly once, on the same series the middleware uses.
	var req batchRequest
	if code, err := decodeStateless(w, r, 1<<24, &req); err != nil {
		writeError(w, code, err)
		return
	}
	if len(req.Requests) == 0 || len(req.Requests) > maxBatch {
		writeError(w, http.StatusBadRequest, fmt.Errorf("batch size %d out of [1,%d]", len(req.Requests), maxBatch))
		return
	}
	out := batchResponse{Responses: make([]batchEntry, len(req.Requests))}
	scoreEntry := func(i int) {
		defer func() {
			// A panic in a fan-out goroutine is beyond recovered's reach
			// and would kill the process: the entry fails alone instead.
			if p := recover(); p != nil {
				s.logPanic(r.URL.Path, p)
				s.batchEntryErrs.Inc()
				out.Responses[i] = batchEntry{Error: "internal error"}
			}
		}()
		resp, err := s.recommend(r.Context(), req.Requests[i])
		if err != nil {
			s.batchEntryErrs.Inc()
			out.Responses[i] = batchEntry{Error: err.Error()}
			return
		}
		s.items.Add(int64(len(resp.Items)))
		out.Responses[i] = batchEntry{Items: resp.Items, Scores: resp.Scores}
	}
	if batchParallelism <= 1 {
		// One core: fan-out buys nothing, goroutine churn costs real time.
		for i := range req.Requests {
			scoreEntry(i)
		}
	} else {
		var wg sync.WaitGroup
		slots := make(chan struct{}, batchParallelism)
		for i := range req.Requests {
			wg.Add(1)
			slots <- struct{}{}
			go func() {
				defer wg.Done()
				defer func() { <-slots }()
				scoreEntry(i)
			}()
		}
		wg.Wait()
	}
	writeJSON(w, http.StatusOK, out)
}

// maxHistoryLen caps the caller-shipped history of a single recommend
// request. It exists so the single and batch paths enforce the same
// per-request budget: /recommend's 4 MiB body cap would otherwise let a
// batch entry (under the batch's larger whole-body cap) carry a history
// no single request could.
const maxHistoryLen = 1 << 17

// clampNOmega applies the shared N defaulting/capping and Ω validation
// against m's |W| and default Ω, for every recommend path.
func clampNOmega(m *core.Model, n int, omegaPtr *int) (int, int, error) {
	capW := m.Extractor.WindowCap()
	if n <= 0 {
		n = 10
	}
	n = min(n, capW)
	omega := m.Extractor.Omega()
	if omegaPtr != nil {
		omega = *omegaPtr
	}
	if omega < 0 || omega >= capW {
		return 0, 0, fmt.Errorf("omega %d out of [0,%d)", omega, capW)
	}
	return n, omega, nil
}

// recommend validates the request, then scores it with the TS-PPR
// engine. Validation errors are the caller's fault (400, or a 400-style
// batch entry); score's errDeadline is not. Both /recommend and every
// /recommend/batch entry go through this one function, so the two paths
// cannot drift apart.
func (s *Server) recommend(ctx context.Context, req recommendRequest) (*recommendResponse, error) {
	eng := s.eng.Load()
	m := eng.Model()
	if req.User < 0 || req.User >= m.NumUsers() {
		return nil, fmt.Errorf("user %d out of range [0,%d)", req.User, m.NumUsers())
	}
	n, omega, err := clampNOmega(m, req.N, req.Omega)
	if err != nil {
		return nil, err
	}
	if len(req.History) == 0 {
		return nil, errors.New("history is empty")
	}
	if len(req.History) > maxHistoryLen {
		return nil, fmt.Errorf("history length %d over the %d cap", len(req.History), maxHistoryLen)
	}
	for i, it := range req.History {
		if it < 0 || it >= m.NumItems() {
			return nil, fmt.Errorf("history[%d] = %d out of range [0,%d)", i, it, m.NumItems())
		}
	}
	// The last |W| events at their original positions: gaps and T match a
	// window that saw every push. The engine reads only the window.
	capW := m.Extractor.WindowCap()
	tail := req.History[max(0, len(req.History)-capW):]
	buf := make([]seq.Item, capW)
	for i, it := range tail {
		buf[i] = seq.Item(it)
	}
	ring := seq.RingOver(buf, 0, len(tail), len(req.History))
	rctx := &rec.Context{User: req.User, Window: ring.IntoWindow(), Omega: omega}
	return s.score(ctx, eng, rctx, n)
}

// errDeadline is score's error when the request deadline expired before
// scoring began.
var errDeadline = errors.New("request deadline expired before scoring")

// score ranks an assembled recommendation context on the request
// goroutine, so the request keeps its -max-inflight slot for as long as
// scoring runs. The deadline bounds when scoring may start; scoring itself
// is at most |W| candidates × K and cannot block. A scorer panic
// propagates to the caller's recovery.
func (s *Server) score(ctx context.Context, eng *engine.Engine, rctx *rec.Context, n int) (*recommendResponse, error) {
	// Resilience-test hook: a Panic/Delay plan armed at this point
	// simulates a scorer bug or stall. Disarmed in production.
	_ = faultinject.Do("server.score")
	if ctx.Err() != nil {
		s.timeouts.Inc()
		return nil, errDeadline
	}
	scored := eng.Recommend(rctx, n, nil)
	resp := &recommendResponse{Items: make([]int, len(scored)), Scores: make([]float64, len(scored))}
	for i, sc := range scored {
		resp.Items[i] = int(sc.Item)
		resp.Scores[i] = sc.Score
	}
	return resp, nil
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		log.Printf("rrc-server: encode response: %v", err)
	}
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}
