// Command rrc-server serves online RRC recommendations from a trained
// TS-PPR model over a small JSON HTTP API.
//
// Endpoints:
//
//	GET  /healthz          → {"status":"ok"} while the process is alive
//	GET  /readyz           → 200 when the primary scorer is healthy,
//	                         503 while degraded (fallback-only) — wire
//	                         this one into load balancers
//	GET  /metrics          → Prometheus text exposition: request, resilience,
//	                         engine, WAL, shard and replication families
//	POST /recommend        → body {"user":0,"history":[1,2,3,...],"n":5,"omega":10}
//	                         reply {"items":[...],"scores":[...]}
//	POST /recommend/batch  → body {"requests":[{...},{...}]}
//	                         reply {"responses":[{...}|{"error":...},...]},
//	                         entries scored in parallel (bounded fan-out)
//	POST /consume          → (with -events-dir) body {"user":0,"item":42}
//	                         append one consumption durably, advance W_ut
//	POST /recommend/user   → (with -events-dir) body {"user":0,"n":5}
//	                         rank from the server-held window
//
// The caller supplies the user's recent consumption history (most recent
// last); the server restores its last |W| events as the time window and
// ranks the reconsumable candidates. With -events-dir the server instead
// owns the per-user windows: events POSTed to /consume are appended to a
// crash-recoverable write-ahead log (fsync policy via -fsync) before
// they touch memory, periodic snapshots bound recovery time, and
// /recommend/user ranks from the stored window with no history payload.
//
// Resilience: every request runs under panic recovery and a deadline; a
// concurrency semaphore sheds load with 429 + Retry-After once saturated.
// If the primary TS-PPR scorer panics or misses its deadline the request
// is answered by a recency/popularity fallback scorer instead of failing,
// and after a few consecutive primary failures the server enters degraded
// mode (fallback-only, /readyz → 503) with periodic probes of the
// primary. SIGHUP hot-reloads the model file with validate-before-swap —
// a bad file on disk never displaces the serving model. SIGINT/SIGTERM
// drain in-flight requests for -drain-timeout. Usage:
//
//	rrc-server -model model.tsppr -addr :8395 -window 100
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"tsppr/internal/baselines"
	"tsppr/internal/core"
	"tsppr/internal/engine"
	"tsppr/internal/faultinject"
	"tsppr/internal/obs"
	"tsppr/internal/rec"
	"tsppr/internal/rescache"
	"tsppr/internal/router"
	"tsppr/internal/seq"
	"tsppr/internal/shard"
	"tsppr/internal/wal"
)

func main() {
	var (
		modelPath    = flag.String("model", "", "trained model file (required; re-read on SIGHUP)")
		addr         = flag.String("addr", ":8395", "listen address")
		window       = flag.Int("window", 100, "time window capacity |W|")
		omega        = flag.Int("omega", 10, "default minimum gap Ω")
		maxInFlight  = flag.Int("max-inflight", 64, "concurrent recommend requests before load-shedding with 429")
		reqTimeout   = flag.Duration("request-timeout", 2*time.Second, "per-request scoring deadline")
		drainTimeout = flag.Duration("drain-timeout", 10*time.Second, "graceful-shutdown drain budget")

		pprofAddr = flag.String("pprof-addr", "", "serve net/http/pprof on this address (e.g. localhost:6060); empty disables")

		responseCache = flag.Int("response-cache", rescache.DefaultMaxEntries, "bound on cached /recommend/user responses, invalidated by consume LSN (0 disables; requires -events-dir)")

		eventsDir     = flag.String("events-dir", "", "enable durable online sessions: write-ahead event log + snapshots live here")
		shards        = flag.Int("shards", 1, "online failure domains: users are hash-partitioned over this many independent WAL+session shards (fixed per events dir)")
		fsyncPolicy   = flag.String("fsync", "always", "event-log durability: always (lose nothing), interval (batched), never (page cache)")
		fsyncInterval = flag.Duration("fsync-interval", wal.DefaultSyncEvery, "batching period for -fsync interval")
		snapshotEvery = flag.Int("snapshot-every", 4096, "minimum appends between periodic snapshots (0 = only at shutdown)")
		// Deprecated: -max-sessions is parsed only because bench/fleet.go
		// still passes it; it goes once that file drops it.
		_           = flag.Int("max-sessions", 0, "ignored: sessions are never evicted")
		corruptSkip = flag.Bool("wal-skip-corrupt", false, "quarantine CRC-failed log records instead of refusing to start")

		partitionFlag = flag.String("partition", "", "partition identity index/count[@generation] (e.g. 1/3): this node owns only its slice of the user-key space and answers 421 for the rest; fixed per events dir unless the generation is bumped (requires -events-dir)")

		followURL       = flag.String("follow", "", "run as a warm standby tailing this primary's WAL stream (read-only until promoted)")
		peersCSV        = flag.String("peers", "", "comma-separated peer base URLs; a restarting primary checks their epochs and starts fenced if deposed")
		shutdownTimeout = flag.Duration("shutdown-timeout", 30*time.Second, "bound on the graceful shard drain (final snapshots) at shutdown; 0 = unbounded")
	)
	flag.Parse()
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "max-sessions" {
			log.Printf("rrc-server: -max-sessions is ignored: sessions are never evicted")
		}
	})

	if *modelPath == "" {
		fmt.Fprintln(os.Stderr, "rrc-server: -model is required")
		os.Exit(2)
	}
	fsync, err := wal.ParseSyncPolicy(*fsyncPolicy)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rrc-server:", err)
		os.Exit(2)
	}
	var partition shard.PartitionID
	if *partitionFlag != "" {
		if *eventsDir == "" {
			fmt.Fprintln(os.Stderr, "rrc-server: -partition requires -events-dir (key ownership is an online-session contract)")
			os.Exit(2)
		}
		partition, err = shard.ParsePartitionID(*partitionFlag)
		if err != nil {
			fmt.Fprintln(os.Stderr, "rrc-server:", err)
			os.Exit(2)
		}
	}
	model, err := core.LoadServingFile(*modelPath)
	if err == nil {
		err = model.Validate()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "rrc-server:", err)
		os.Exit(1)
	}
	corrupt := wal.CorruptHalt
	if *corruptSkip {
		corrupt = wal.CorruptSkip
	}
	srv := newServer(model, serverOptions{
		modelPath:    *modelPath,
		windowCap:    *window,
		defaultOmega: *omega,
		maxInFlight:  *maxInFlight,
		reqTimeout:   *reqTimeout,

		eventsDir:     *eventsDir,
		cacheEntries:  *responseCache,
		shards:        *shards,
		partition:     partition,
		fsync:         fsync,
		fsyncInterval: *fsyncInterval,
		snapshotEvery: *snapshotEvery,
		corrupt:       corrupt,

		followURL:       *followURL,
		peers:           splitPeers(*peersCSV),
		shutdownTimeout: *shutdownTimeout,
	})
	if *eventsDir != "" {
		online, err := newOnline(srv.opts, model)
		if err != nil {
			fmt.Fprintln(os.Stderr, "rrc-server:", err)
			os.Exit(1)
		}
		srv.online = online
		ws := online.pool.WALStats()
		var sessionsTotal, replayed int
		for i := 0; i < online.pool.N(); i++ {
			sessionsTotal += online.pool.Shard(i).Status().Sessions
			replayed += online.pool.Shard(i).RecoverStats().Replayed
		}
		log.Printf("recovered %d sessions across %d shard(s) (%d replayed records, %d torn tail(s) truncated, %d corrupt skipped) from %s",
			sessionsTotal, online.pool.N(), replayed, ws.TruncatedTails, ws.SkippedCorrupt, *eventsDir)
	}
	if err := srv.setupReplication(); err != nil {
		fmt.Fprintln(os.Stderr, "rrc-server:", err)
		os.Exit(1)
	}
	if *pprofAddr != "" {
		go servePprof(*pprofAddr)
	}
	log.Printf("serving model (users=%d items=%d K=%d F=%d) on %s",
		model.NumUsers(), model.NumItems(), model.K, model.F, *addr)
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.routes(),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       15 * time.Second,
		WriteTimeout:      *reqTimeout + 15*time.Second,
		IdleTimeout:       2 * time.Minute,
	}

	// SIGHUP hot-reloads the model; SIGINT/SIGTERM drain and exit.
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	go srv.watchReload(hup)

	idle := make(chan struct{})
	go func() {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
		<-sig
		log.Print("shutting down")
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := httpSrv.Shutdown(ctx); err != nil {
			log.Printf("shutdown: %v", err)
		}
		// The listener has drained: stop replication first (nothing may
		// apply into the pool while it drains), then flush a final
		// snapshot per shard and close the event logs — under the
		// -shutdown-timeout bound, so one wedged shard cannot hold the
		// process hostage. A shard that misses the deadline loses only its
		// final snapshot; its WAL remains authoritative for recovery.
		if srv.repl != nil {
			srv.repl.stop()
		}
		if srv.online != nil {
			missed, err := srv.online.closeTimeout(srv.opts.shutdownTimeout)
			for _, i := range missed {
				log.Printf("shard %d missed the %s shutdown deadline; its WAL remains authoritative", i, srv.opts.shutdownTimeout)
			}
			if err != nil {
				log.Printf("event log close: %v", err)
			}
		}
		close(idle)
	}()
	if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatal(err)
	}
	<-idle
}

// splitPeers parses the -peers flag: comma-separated base URLs, blanks
// dropped.
func splitPeers(csv string) []string {
	var peers []string
	for _, p := range strings.Split(csv, ",") {
		if p = strings.TrimSpace(p); p != "" {
			peers = append(peers, p)
		}
	}
	return peers
}

// servePprof serves the net/http/pprof handlers on their own mux and
// listener, kept off the public API address so profiling endpoints are
// never reachable through the serving port.
func servePprof(addr string) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	log.Printf("pprof listening on %s", addr)
	if err := http.ListenAndServe(addr, mux); err != nil {
		log.Printf("pprof server: %v", err)
	}
}

// serverOptions configures a server. Zero resilience fields pick the
// defaults applied by newServer.
type serverOptions struct {
	modelPath    string
	windowCap    int
	defaultOmega int

	maxInFlight   int           // semaphore size; 0 → 64
	reqTimeout    time.Duration // primary-scorer deadline; 0 → 2s
	failThreshold int           // consecutive failures before degraded; 0 → 3
	probeEvery    int           // degraded-mode primary probe period; 0 → 16

	// Online-session fields; zero values defer to wal/sessions defaults.
	eventsDir     string            // "" disables /consume and /recommend/user
	cacheEntries  int               // /recommend/user response-cache bound; 0 disables
	shards        int               // online failure domains; 0 → 1
	partition     shard.PartitionID // user-key slice this node owns; zero → 0/1 (whole key space)
	fsync         wal.SyncPolicy
	fsyncInterval time.Duration
	snapshotEvery int
	corrupt       wal.CorruptPolicy

	// Shard supervisor tuning; zero values defer to shard.Config
	// defaults. Tests shrink the backoffs to keep chaos runs fast.
	shardFailThreshold int
	shardRestartBudget int
	shardBackoffBase   time.Duration
	shardBackoffMax    time.Duration

	// Replication plane; zero values defer to replica defaults.
	followURL       string        // "" → primary role
	peers           []string      // primary: startup epoch check against the fleet
	shutdownTimeout time.Duration // bound on the graceful shard drain; 0 = unbounded
	replBackoffBase time.Duration // follower tailer retry backoff; 0 → 100ms
	replBackoffMax  time.Duration
	replWait        time.Duration // stream long-poll hold; 0 → 2s

	// metrics is set by newServer to the server's registry so newOnline
	// can instrument the WAL and register session gauges.
	metrics *obs.Registry
}

type server struct {
	opts serverOptions
	// eng is the serving scoring engine over the current model. SIGHUP
	// hot-swaps the whole engine (model + precomputed effective feature
	// weights + fresh scratch pool) in one atomic store, so in-flight
	// requests finish on the engine they started with.
	eng    atomic.Pointer[engine.Engine]
	sem    chan struct{}
	online *onlineState // nil unless -events-dir is configured
	repl   *replState   // nil unless online; owns role, epoch, fencing

	// reg is the process metric registry (GET /metrics); the counter
	// handles below are series registered on it by initMetrics.
	// Per-endpoint request/error/latency series live behind instrument.
	reg            *obs.Registry
	items          *obs.Counter // items returned across recommend endpoints
	panics         *obs.Counter // panics absorbed (scorer and handler)
	timeouts       *obs.Counter // primary-scorer deadline misses
	shed           *obs.Counter // requests rejected with 429
	fallbacks      *obs.Counter // requests answered by the fallback scorer
	reloads        *obs.Counter // successful SIGHUP model swaps
	batchEntryErrs *obs.Counter // failed /recommend/batch entries
	modelBytes     *obs.Gauge   // core.Model.ResidentBytes of the serving model

	failStreak atomic.Int64 // consecutive primary-scorer failures
	degraded   atomic.Bool  // fallback-only mode
	probeTick  atomic.Int64 // degraded-mode request counter for probing
}

func newServer(m *core.Model, opts serverOptions) *server {
	if opts.maxInFlight <= 0 {
		opts.maxInFlight = 64
	}
	if opts.reqTimeout <= 0 {
		opts.reqTimeout = 2 * time.Second
	}
	if opts.failThreshold <= 0 {
		opts.failThreshold = 3
	}
	if opts.probeEvery <= 0 {
		opts.probeEvery = 16
	}
	s := &server{opts: opts, sem: make(chan struct{}, opts.maxInFlight)}
	s.initMetrics()
	s.opts.metrics = s.reg // newOnline wires the WAL and session gauges from here
	s.swapEngine(m)
	return s
}

// swapEngine publishes a fresh engine over m. It records into the same
// registry series as the engine it replaces.
func (s *server) swapEngine(m *core.Model) {
	eng := engine.New(m)
	eng.Instrument(s.reg)
	s.eng.Store(eng)
	s.modelBytes.Set(float64(m.ResidentBytes()))
}

// currentModel returns the model behind the serving engine (nil before the
// first engine is stored).
func (s *server) currentModel() *core.Model {
	if e := s.eng.Load(); e != nil {
		return e.Model()
	}
	return nil
}

func (s *server) routes() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /readyz", s.handleReady)
	mux.Handle("GET /metrics", s.reg.Handler())
	mux.Handle("POST /recommend",
		s.harden(s.instrument("/recommend", http.HandlerFunc(s.handleRecommend))))
	mux.Handle("POST /recommend/batch",
		s.harden(s.instrument("/recommend/batch", http.HandlerFunc(s.handleBatch))))
	if s.online != nil {
		mux.Handle("POST /consume",
			s.harden(s.instrument("/consume", http.HandlerFunc(s.handleConsume))))
		mux.Handle("POST /recommend/user",
			s.harden(s.instrument("/recommend/user", http.HandlerFunc(s.handleRecommendUser))))
		// Admin plane: not hardened (a drain must not be shed under load)
		// and not instrumented (it is not traffic).
		mux.HandleFunc("POST /admin/drain", s.handleDrain)
		if s.repl != nil {
			s.repl.stream.Register(mux)
			mux.HandleFunc("POST /admin/promote", s.handlePromote)
		}
	} else {
		mux.Handle("POST /consume", s.instrument("/consume", http.HandlerFunc(s.errOnlineDisabled)))
		mux.Handle("POST /recommend/user", s.instrument("/recommend/user", http.HandlerFunc(s.errOnlineDisabled)))
	}
	return s.recovered(mux)
}

// recovered is the outermost middleware: a panic anywhere in request
// handling becomes a 500 and a counter bump instead of a dead process.
func (s *server) recovered(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if p := recover(); p != nil {
				// The instrument middleware already counted the error;
				// this layer owns the panic counter and the 500.
				s.panics.Inc()
				log.Printf("rrc-server: panic serving %s: %v\n%s", r.URL.Path, p, debug.Stack())
				// Best effort: if the handler already wrote a status this
				// is a no-op superfluous-header log, not a second panic.
				writeError(w, http.StatusInternalServerError, errors.New("internal error"))
			}
		}()
		next.ServeHTTP(w, r)
	})
}

// harden wraps the scoring endpoints with the concurrency semaphore
// (load-shedding with 429 + Retry-After when saturated) and the
// per-request deadline: the server default, lowered by a propagated
// X-RRC-Deadline-Ms header when a front end (rrc-router) has less
// time left than we would grant ourselves. The header can only
// shorten the deadline — a client cannot buy more server time than
// -request-timeout allows.
func (s *server) harden(next http.Handler) http.Handler {
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
		timeout := s.opts.reqTimeout
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

// handleHealth reports liveness only: the process is up and serving, even
// if it is degraded to the fallback scorer.
func (s *server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// readyResponse is the GET /readyz reply. Shards lists every shard's
// lifecycle state (indexed by shard) when online sessions are enabled,
// so an orchestrator can tell "one shard restarting" from "down".
type readyResponse struct {
	Status string   `json:"status"`
	Shards []string `json:"shards,omitempty"`
	// Partition is the user-key slice this node owns; nil when online
	// sessions are off. rrc-router probes it to catch a node whose
	// -partition disagrees with the topology file before any traffic is
	// misrouted.
	Partition *partitionInfo `json:"partition,omitempty"`
	// Replication reports the node's role, epoch, fence, and (follower)
	// lag; nil when the replication plane is off.
	Replication *replStatus `json:"replication,omitempty"`
}

// partitionInfo is the /readyz partition block, mirroring the on-disk
// marker's JSON shape.
type partitionInfo struct {
	Index      int `json:"partition"`
	Count      int `json:"partitions"`
	Generation int `json:"generation"`
}

// handleReady reports readiness: a loaded model, a healthy primary
// scorer, and (online) every shard serving. Load balancers should route
// on this, so a replica with a degraded scorer or a recovering shard
// keeps serving what it can but stops attracting new traffic.
func (s *server) handleReady(w http.ResponseWriter, _ *http.Request) {
	resp := readyResponse{Status: "ready"}
	code := http.StatusOK
	if s.online != nil {
		for _, st := range s.online.pool.States() {
			resp.Shards = append(resp.Shards, st.String())
		}
		part := s.online.pool.Partition()
		resp.Partition = &partitionInfo{Index: part.Index, Count: part.Count, Generation: part.Generation}
		if !s.online.ready() {
			resp.Status, code = "recovering", http.StatusServiceUnavailable
		}
	}
	if s.degraded.Load() {
		resp.Status, code = "degraded", http.StatusServiceUnavailable
	}
	if s.eng.Load() == nil {
		resp.Status, code = "no model", http.StatusServiceUnavailable
	}
	if s.repl != nil {
		st := s.repl.status()
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
	}
	if code != http.StatusOK {
		// Recovering, degraded, and fenced are all states a prober
		// should re-check shortly, not back off from for minutes.
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, code, resp)
}

// reload re-reads the model file and swaps it in atomically, but only
// after it parses, checksums, and validates — a truncated or NaN-ridden
// file on disk never displaces the serving model. A successful reload
// also clears degraded mode: the new model gets a fresh chance.
func (s *server) reload() error {
	if s.opts.modelPath == "" {
		return errors.New("no model path configured")
	}
	m, err := core.LoadServingFile(s.opts.modelPath)
	if err != nil {
		return err
	}
	if err := m.Validate(); err != nil {
		return err
	}
	// Validate precomputed the effective feature weights, so the first
	// request after the swap is already on the two-dot-product path.
	s.swapEngine(m)
	// The swap changed every score under unchanged window LSNs, so the
	// response cache must drop wholesale — after the store, so a fill
	// racing the swap is caught by the epoch bump either way.
	if s.online != nil {
		s.online.cache.Purge()
	}
	s.failStreak.Store(0)
	s.degraded.Store(false)
	s.reloads.Inc()
	return nil
}

// watchReload performs a hot reload for every signal delivered on sig,
// keeping the current model when the file on disk is rejected.
func (s *server) watchReload(sig <-chan os.Signal) {
	for range sig {
		if err := s.reload(); err != nil {
			log.Printf("rrc-server: reload rejected, keeping current model: %v", err)
			continue
		}
		m := s.currentModel()
		log.Printf("rrc-server: reloaded model (users=%d items=%d K=%d F=%d)",
			m.NumUsers(), m.NumItems(), m.K, m.F)
	}
}

// recommendRequest is the POST /recommend body.
type recommendRequest struct {
	User    int   `json:"user"`
	History []int `json:"history"`
	N       int   `json:"n"`
	Omega   *int  `json:"omega,omitempty"`
}

// recommendResponse is the POST /recommend reply. Degraded marks answers
// produced by the fallback scorer.
type recommendResponse struct {
	Items    []int     `json:"items"`
	Scores   []float64 `json:"scores"`
	Degraded bool      `json:"degraded,omitempty"`
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
		return http.StatusBadRequest, err
	}
	return http.StatusOK, nil
}

func (s *server) handleRecommend(w http.ResponseWriter, r *http.Request) {
	var req recommendRequest
	if code, err := decodeStateless(w, r, 1<<22, &req); err != nil {
		writeError(w, code, err)
		return
	}
	resp, err := s.recommend(r.Context(), req)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	s.items.Add(int64(len(resp.Items)))
	writeJSON(w, http.StatusOK, resp)
}

// batchRequest is the POST /recommend/batch body.
type batchRequest struct {
	Requests []recommendRequest `json:"requests"`
}

// batchEntry is one element of the batch reply: either a response or an
// error, never both.
type batchEntry struct {
	Items    []int     `json:"items,omitempty"`
	Scores   []float64 `json:"scores,omitempty"`
	Degraded bool      `json:"degraded,omitempty"`
	Error    string    `json:"error,omitempty"`
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

func (s *server) handleBatch(w http.ResponseWriter, r *http.Request) {
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
		resp, err := s.recommend(r.Context(), req.Requests[i])
		if err != nil {
			s.batchEntryErrs.Inc()
			out.Responses[i] = batchEntry{Error: err.Error()}
			return
		}
		s.items.Add(int64(len(resp.Items)))
		out.Responses[i] = batchEntry{Items: resp.Items, Scores: resp.Scores, Degraded: resp.Degraded}
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
// used by every recommend path (stateless, batch, session-backed).
func (s *server) clampNOmega(n int, omegaPtr *int) (int, int, error) {
	if n <= 0 {
		n = 10
	}
	if n > s.opts.windowCap {
		n = s.opts.windowCap
	}
	omega := s.opts.defaultOmega
	if omegaPtr != nil {
		omega = *omegaPtr
	}
	if omega < 0 || omega >= s.opts.windowCap {
		return 0, 0, fmt.Errorf("omega %d out of [0,%d)", omega, s.opts.windowCap)
	}
	return n, omega, nil
}

// recommend validates the request, then scores it with the primary TS-PPR
// scorer under the request deadline, falling back to the recency/
// popularity scorer when the primary panics or times out. Validation
// errors are the caller's fault (400, or a 400-style batch entry);
// scorer trouble never is — the request still gets an answer. Both
// /recommend and every /recommend/batch entry go through this one
// function, so the two paths cannot drift apart.
func (s *server) recommend(ctx context.Context, req recommendRequest) (*recommendResponse, error) {
	eng := s.eng.Load()
	m := eng.Model()
	if req.User < 0 || req.User >= m.NumUsers() {
		return nil, fmt.Errorf("user %d out of range [0,%d)", req.User, m.NumUsers())
	}
	n, omega, err := s.clampNOmega(req.N, req.Omega)
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
	// window that saw every push. Engine and fallback read only the window.
	tail := req.History[max(0, len(req.History)-s.opts.windowCap):]
	items := make([]seq.Item, len(tail))
	for i, it := range tail {
		items[i] = seq.Item(it)
	}
	ring, err := seq.RestoreRing(s.opts.windowCap, len(req.History), items)
	if err != nil {
		return nil, err
	}
	rctx := &rec.Context{User: req.User, Window: ring.Window(), Omega: omega}
	return s.score(ctx, eng, rctx, n), nil
}

// score runs the primary-with-fallback orchestration over an assembled
// recommendation context. It always produces an answer.
func (s *server) score(ctx context.Context, eng *engine.Engine, rctx *rec.Context, n int) *recommendResponse {
	if s.shouldTryPrimary() {
		resp, err := s.scorePrimary(ctx, eng, rctx, n)
		if err == nil {
			s.primaryRecovered()
			return resp
		}
		s.primaryFailed(err)
	}
	s.fallbacks.Inc()
	return s.scoreFallback(rctx, n)
}

// shouldTryPrimary gates the primary scorer: always when healthy, every
// probeEvery-th request while degraded so recovery is detected without
// exposing much traffic to a still-broken scorer.
func (s *server) shouldTryPrimary() bool {
	if !s.degraded.Load() {
		return true
	}
	return s.probeTick.Add(1)%int64(s.opts.probeEvery) == 0
}

func (s *server) primaryRecovered() {
	s.failStreak.Store(0)
	if s.degraded.CompareAndSwap(true, false) {
		log.Print("rrc-server: primary scorer recovered, leaving degraded mode")
	}
}

func (s *server) primaryFailed(err error) {
	if errors.Is(err, context.DeadlineExceeded) {
		s.timeouts.Inc()
	} else {
		s.panics.Inc()
	}
	streak := s.failStreak.Add(1)
	if streak >= int64(s.opts.failThreshold) && s.degraded.CompareAndSwap(false, true) {
		log.Printf("rrc-server: %d consecutive primary failures (last: %v), entering degraded mode", streak, err)
	}
}

// scorePrimary runs the scoring engine in its own goroutine so a stalled
// scorer cannot pin the request past its deadline, and absorbs scorer
// panics into errors. On timeout the goroutine finishes in the
// background and its buffered result is dropped. The engine returns
// (item, score) pairs, so the response is assembled from the one ranking
// pass — items are never re-scored.
func (s *server) scorePrimary(ctx context.Context, eng *engine.Engine, rctx *rec.Context, n int) (*recommendResponse, error) {
	type result struct {
		resp *recommendResponse
		err  error
	}
	ch := make(chan result, 1)
	go func() {
		defer func() {
			if p := recover(); p != nil {
				ch <- result{err: fmt.Errorf("primary scorer panic: %v", p)}
			}
		}()
		// Resilience-test hook: a Panic/Delay plan armed at this point
		// simulates a scorer bug or stall. Disarmed in production.
		_ = faultinject.Do("server.score")
		ch <- result{resp: toResponse(eng.Recommend(rctx, n, nil), false)}
	}()
	select {
	case out := <-ch:
		return out.resp, out.err
	case <-ctx.Done():
		return nil, fmt.Errorf("primary scorer: %w", context.Cause(ctx))
	}
}

// scoreFallback answers with the trained-table-free recency/popularity
// scorer. It runs inline: it is allocation-light, panic-free, and fast.
func (s *server) scoreFallback(rctx *rec.Context, n int) *recommendResponse {
	fb := &baselines.Fallback{}
	return toResponse(fb.Recommend(rctx, n, nil), true)
}

// toResponse converts a scored recommendation list into the wire shape.
func toResponse(scored []rec.Scored, degraded bool) *recommendResponse {
	resp := &recommendResponse{
		Items:    make([]int, len(scored)),
		Scores:   make([]float64, len(scored)),
		Degraded: degraded,
	}
	for i, sc := range scored {
		resp.Items[i] = int(sc.Item)
		resp.Scores[i] = sc.Score
	}
	return resp
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
