package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"tsppr/internal/engine"
)

// metricDef names one metric. The end-to-end and per-layer tables below
// are what the harness emits; BENCHMARK.json at the repository root
// repeats them for the acceptance driver, and a test keeps the two in
// step.
type metricDef struct {
	name, unit string
}

var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"throughput_rps", "1/s"},
	{"op_p95_ms", "ms"},
	{"cpu_ms_per_req", "ms"},
	{"peak_rss_mb", "MB"},
}

var perLayerMetrics = []metricDef{
	{"router.hop_us", "us"},
	{"router.handler_mean_us", "us"},
	{"router.retries", "count"},
	{"router.errors", "count"},
	{"router.shed", "count"},
	{"server.http_floor_us", "us"},
	{"server.handler_mean_us.consume", "us"},
	{"server.handler_mean_us.recommend_user", "us"},
	{"server.handler_mean_us.recommend_batch", "us"},
	{"server.json_decode_us", "us"},
	{"server.json_encode_us", "us"},
	{"server.shed_429", "count"},
	{"server.timeouts", "count"},
	{"server.fallbacks", "count"},
	{"rescache.hit_ratio", "ratio"},
	{"rescache.useful_fill_ratio", "ratio"},
	{"rescache.invalidations", "count"},
	{"rescache.evictions", "count"},
	{"rescache.entries", "count"},
	{"rescache.get_hit_us", "us"},
	{"rescache.get_miss_us", "us"},
	{"rescache.put_us", "us"},
	{"rescache.invalidate_us", "us"},
	{"shard.user_lsn_us", "us"},
	{"shard.window_clone_us", "us"},
	{"shard.ingest_us", "us"},
	{"shard.snapshots", "count"},
	{"shard.load_max_over_min", "ratio"},
	{"wal.appends", "count"},
	{"wal.append_mean_us", "us"},
	{"wal.fsync_mean_us", "us"},
	{"wal.fsyncs_per_append", "ratio"},
	{"wal.disk_bytes_per_event", "bytes"},
	{"wal.append_sync_us", "us"},
	{"wal.append_nosync_us", "us"},
	{"engine.recommends", "count"},
	{"engine.recommend_mean_us", "us"},
	{"engine.candidates_mean", "count"},
	{"engine.recommend_us", "us"},
	{"engine.allocs_per_op", "count"},
	{"engine.batch64_us", "us"},
	{"engine.batch64_allocs", "count"},
	{"seq.replay_us", "us"},
	{"replica.catchup_s", "s"},
	{"replica.lag_records_max", "count"},
	{"replica.applied", "count"},
	{"replica.standby_cpu_ms_per_req", "ms"},
	{"client.op_p50_ms", "ms"},
	{"client.read_p50_ms", "ms"},
	{"client.read_p95_ms", "ms"},
	{"client.write_p50_ms", "ms"},
	{"client.write_p95_ms", "ms"},
	{"client.op_p99_ms", "ms"},
	{"client.op_max_ms", "ms"},
	{"client.unloaded_op_p50_ms", "ms"},
	{"load.failed_ratio", "ratio"},
	{"setup.fixture_s", "s"},
	{"setup.build_s", "s"},
	{"setup.boot_s", "s"},
	{"setup.warmup_s", "s"},
	{"budget.unattributed_ratio", "ratio"},
	{"trace.overhead_ratio", "ratio"},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// environment is what a reader needs to place a result: the numbers
// mean nothing without the box and the build they came from.
type environment struct {
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Commit     string `json:"commit"`
	Clients    int    `json:"clients"`
}

// record is one run of one workload, as appended to the -out file.
type record struct {
	Workload   string            `json:"workload"`
	Seed       int64             `json:"seed"`
	Seconds    int               `json:"seconds"`
	Trace      int               `json:"trace"`
	Users      int               `json:"users"`
	Items      int               `json:"items"`
	Env        environment       `json:"env"`
	Children   [][]string        `json:"children"`
	Correct    bool              `json:"correct"`
	Attempted  int64             `json:"attempted"`
	Failed     int64             `json:"failed"`
	Mismatches int64             `json:"oracle_mismatches"`
	WindowOps  int               `json:"window_ops"` // successful ops in the measure window: the sample behind every percentile
	EndToEnd   map[string]metric `json:"end_to_end"`
	PerLayer   map[string]metric `json:"per_layer"`
	Budget     []budgetRow       `json:"budget,omitempty"`
	TopCosts   []string          `json:"top_costs,omitempty"`
}

// config is one invocation's settings.
type config struct {
	workDir string // removed on exit
	binDir  string
	keepDir string // survives the run: trace-<workload>.jsonl lands here
	buildS  float64
	env     environment

	seed         int64
	seconds      int
	trace        bool
	users, items int // fixtureUsers, fixtureItems; only the smoke test runs smaller
}

const (
	setupRepeats = 3 // fleet boots per untraced run; setup_s uses their median

	// tailPct is the end-to-end tail. The slowest workload completes
	// about 3,500 ops in a 10 s window, so p99 still has thirty-odd
	// samples beyond it; it is reported per layer (client.op_p99_ms),
	// not bounded, because its run-to-run spread on the reference
	// sandbox (up to 16%) leaves too little of the 25% a bound may be.
	tailPct = 95.0
)

// runWorkload measures one workload end to end: fixture, fleet,
// warm-up, the measure window, the audit, and with cfg.trace the traced
// phases. Every child it starts is dead when it returns.
func runWorkload(ctx context.Context, cfg config, w workload) (*record, error) {
	dir := filepath.Join(cfg.workDir, w.name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	rec := &record{
		Workload: w.name, Seed: cfg.seed, Seconds: cfg.seconds, Users: cfg.users, Items: cfg.items,
		Env: cfg.env, EndToEnd: map[string]metric{}, PerLayer: map[string]metric{},
	}

	start := time.Now()
	fx, err := buildFixture(filepath.Join(dir, "fixture"), cfg.seed, cfg.users, cfg.items)
	if err != nil {
		return nil, fmt.Errorf("fixture: %w", err)
	}
	fixtureS := time.Since(start).Seconds()

	// Set-up is repeated and its median reported: a single boot is one
	// sample of page-cache and scheduler luck. Only the last fleet is
	// kept. The traced run reports no end-to-end metric and boots once.
	repeats := setupRepeats
	if cfg.trace {
		repeats = 1
		rec.Trace = 1
	}
	var fl *fleet
	var boots []float64
	for i := 0; i < repeats; i++ {
		if fl != nil {
			fl.stop()
		}
		start = time.Now()
		fl, err = bootFleet(ctx, fx, cfg.binDir, filepath.Join(dir, fmt.Sprintf("fleet-%d", i)), w.replicated)
		if err != nil {
			return nil, err
		}
		boots = append(boots, time.Since(start).Seconds())
	}
	defer fl.stop()
	rec.Children = fl.commandLines()

	eng := engine.New(fx.model)
	clients := make([]*client, cfg.env.Clients)
	for i := range clients {
		clients[i] = newClient(fx, newOracle(fx, eng), w, cfg.seed, i, len(clients))
		defer clients[i].http.CloseIdleConnections()
	}
	start = time.Now()
	total := drive(ctx, clients, fl.router.base, (w.warmupOps+len(clients)-1)/len(clients), 0)
	warmupS := time.Since(start).Seconds()

	win, err := measure(ctx, cfg, fl, clients)
	if err != nil {
		return nil, err
	}
	total.merge(win.tally)
	layer := win.layers()
	layer["setup.fixture_s"] = fixtureS
	layer["setup.build_s"] = cfg.buildS
	layer["setup.boot_s"] = median(boots)
	layer["setup.warmup_s"] = warmupS

	// Audit: what was acknowledged must be what the fleet now serves;
	// with a standby, once it has applied everything the primary has.
	if fl.standby != nil {
		if err := awaitCaughtUp(ctx, win.scraper, fl, win.after[1]["rrc_online_applied_lsn"]); err != nil {
			return nil, err
		}
		layer["replica.catchup_s"] = time.Since(win.closed).Seconds()
	}
	total.merge(audit(clients, fl.router.base))

	e2e := win.endToEnd()
	e2e["setup_s"] = fixtureS + median(boots) + warmupS
	rec.WindowOps = len(win.tally.ops)

	if cfg.trace {
		// Each traced phase gets three tenths of the window's length.
		phase := time.Duration(cfg.seconds) * time.Second * 3 / 10
		alt := alternate(ctx, clients[0], fl, phase)
		total.merge(alt.tally)
		fl.stop() // the replay wants the box to itself
		tr, micro, err := replay(ctx, filepath.Join(dir, "replay"), fx, eng, w, cfg.seed, phase)
		if err != nil {
			return nil, fmt.Errorf("replay: %w", err)
		}
		if err := tr.write(filepath.Join(cfg.keepDir, "trace-"+w.name+".jsonl")); err != nil {
			return nil, err
		}
		for k, v := range micro {
			layer[k] = v
		}
		rec.Budget = traceLayers(layer, tr, alt, win.requestsPerOp(), w.name == "batch_stateless", cfg.env.GOMAXPROCS)
		rec.TopCosts = topCosts(rec.Budget, 3)
	}

	rec.Attempted, rec.Failed, rec.Mismatches = total.attempted, total.failed, total.mismatches
	rec.Correct = total.failed == 0
	layer["load.failed_ratio"] = float64(total.failed) / float64(total.attempted)
	for _, d := range endToEndMetrics {
		rec.EndToEnd[d.name] = metric{e2e[d.name], d.unit}
	}
	for _, d := range perLayerMetrics {
		rec.PerLayer[d.name] = metric{layer[d.name], d.unit}
	}
	return rec, ctx.Err()
}

// windowResult is everything observed about one measure window.
type windowResult struct {
	tally         tally
	requests      int           // the tally's successful HTTP requests of both kinds
	elapsed       time.Duration // window opened → last client stopped
	closed        time.Time     // when the last client stopped
	scraper       *http.Client  // for the children's /metrics
	before, after []promSample  // every child, in children() order
	cpuMS         []float64     // per child, CPU consumed over the window
	rssMB         float64       // Σ children VmHWM after the window
	eventBytes    int64         // growth of the primary's events dir
	lagMax        float64       // worst standby lag sampled (traced run only)
}

// every calls fn once per period on its own goroutine until stop is
// called; stop returns after the goroutine has exited, so what fn wrote
// is then safe to read.
func every(period time.Duration, fn func()) (stop func()) {
	done := make(chan struct{})
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		tick := time.NewTicker(period)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				fn()
			}
		}
	}()
	return func() {
		close(done)
		<-exited
	}
}

// measure opens the window: every client drives the router for
// cfg.seconds, with the children's /metrics, CPU and disk use read
// before and after.
func measure(ctx context.Context, cfg config, fl *fleet, clients []*client) (*windowResult, error) {
	win := &windowResult{scraper: &http.Client{Timeout: 5 * time.Second}}
	events := filepath.Join(fl.dir, "primary-events")
	var err error
	if win.before, err = scrapeFleet(win.scraper, fl); err != nil {
		return nil, err
	}
	bytesBefore, err := dirBytes(events)
	if err != nil {
		return nil, err
	}
	usageBefore, err := fl.usage()
	if err != nil {
		return nil, err
	}
	stopLag := func() {}
	if cfg.trace && fl.standby != nil {
		// Only the traced run polls the standby mid-window: its window
		// reports no end-to-end metric.
		stopLag = every(100*time.Millisecond, func() {
			if s, err := scrape(win.scraper, fl.standby.base); err == nil {
				win.lagMax = math.Max(win.lagMax, s.family("rrc_replica_lag_records"))
			}
		})
	}
	opened := time.Now()
	win.tally = drive(ctx, clients, fl.router.base, 0, time.Duration(cfg.seconds)*time.Second)
	win.closed = time.Now()
	win.elapsed = win.closed.Sub(opened)
	stopLag()
	usage, err := fl.usage()
	if err != nil {
		return nil, err
	}
	for i, u := range usage {
		win.cpuMS = append(win.cpuMS, float64(u.cpu-usageBefore[i].cpu)/1e6)
		win.rssMB += float64(u.hwmKB) / 1024
	}
	win.requests = len(win.tally.reads) + len(win.tally.writes)

	if win.after, err = scrapeFleet(win.scraper, fl); err != nil {
		return nil, err
	}
	bytesAfter, err := dirBytes(events)
	win.eventBytes = bytesAfter - bytesBefore
	if err == nil && len(win.tally.ops) == 0 {
		err = errors.New("no op succeeded in the window")
	}
	return win, err
}

// requestsPerOp is 2 for the session pair, 1 elsewhere.
func (win *windowResult) requestsPerOp() float64 {
	return math.Round(float64(win.requests) / float64(len(win.tally.ops)))
}

// endToEnd reduces the window to the metrics a user of the fleet would
// see. Each is a figure of the whole window — every request counts, so
// a stall of any length and frequency shows in proportion.
func (win *windowResult) endToEnd() map[string]float64 {
	var cpu float64
	for _, ms := range win.cpuMS {
		cpu += ms
	}
	return map[string]float64{
		"throughput_rps": float64(win.requests) / win.elapsed.Seconds(),
		"op_p95_ms":      percentile(sortedMS(win.tally.ops), tailPct),
		"cpu_ms_per_req": cpu / float64(win.requests),
		"peak_rss_mb":    win.rssMB,
	}
}

// layers derives the per-layer figures that need no tracing: the
// clients' latencies by request type and the children's own counters.
func (win *windowResult) layers() map[string]float64 {
	layer := map[string]float64{"replica.lag_records_max": win.lagMax}
	ops := sortedMS(win.tally.ops)
	layer["client.op_p50_ms"] = percentile(ops, 50)
	layer["client.op_p99_ms"] = percentile(ops, 99)
	layer["client.op_max_ms"] = ops[len(ops)-1] // the one figure a single stall shows in
	for kind, lats := range map[string][]time.Duration{"read": win.tally.reads, "write": win.tally.writes} {
		ms := sortedMS(lats)
		layer["client."+kind+"_p50_ms"] = percentile(ms, 50)
		layer["client."+kind+"_p95_ms"] = percentile(ms, tailPct)
	}

	counterLayers(layer, win.after[0].sub(win.before[0]), win.after[1].sub(win.before[1]), win.after[1])
	if n := len(win.tally.writes); n > 0 {
		layer["wal.disk_bytes_per_event"] = float64(win.eventBytes) / float64(n)
	}
	if len(win.after) > 2 {
		layer["replica.applied"] = win.after[2].sub(win.before[2]).family("rrc_replica_applied_total")
		layer["replica.standby_cpu_ms_per_req"] = win.cpuMS[2] / float64(win.requests)
	}
	return layer
}

// traceLayers fills the figures only the traced phases give — the
// alternation's floor, hop and unloaded latency, the replay's per-call
// medians — and returns the budget table.
func traceLayers(layer map[string]float64, tr *tracer, alt alternation, requestsPerOp float64, batch bool, gomaxprocs int) []budgetRow {
	for name, from := range map[string][2]string{
		"server.json_decode_us":  {"json", "decode"},
		"server.json_encode_us":  {"json", "encode"},
		"rescache.get_hit_us":    {"rescache", "Get.hit"},
		"rescache.get_miss_us":   {"rescache", "Get.miss"},
		"rescache.put_us":        {"rescache", "Put"},
		"rescache.invalidate_us": {"rescache", "InvalidateUser"},
		"shard.user_lsn_us":      {"shard", "UserLSN"},
		"shard.window_clone_us":  {"shard", "WindowCloneLSN"},
		"shard.ingest_us":        {"shard", "Ingest"},
		"wal.append_sync_us":     {"wal", "Append.sync"},
		"engine.recommend_us":    {"engine", "Recommend"},
		"seq.replay_us":          {"seq", "replay"},
	} {
		layer[name] = tr.medianByName(from[0], from[1])
	}
	self := tr.selfTimes()
	fanOut := 1.0
	if batch {
		// cmd/rrc-server scores min(8, GOMAXPROCS) entries at a time.
		fanOut = math.Min(8, float64(gomaxprocs))
		per := make([]float64, len(self["seq"]))
		for i := range per {
			per[i] = self["seq"][i] + self["engine"][i]
		}
		layer["engine.batch64_us"] = median(per)
	}
	floorUS, directUS, routedUS := median(alt.floorMS)*1e3, median(alt.directMS)*1e3, median(alt.routedMS)*1e3
	layer["server.http_floor_us"] = floorUS
	layer["router.hop_us"] = routedUS - directUS
	layer["client.unloaded_op_p50_ms"] = routedUS / 1e3
	// Both sides are plain medians over every op of their phase.
	layer["trace.overhead_ratio"] = routedUS / (layer["client.op_p50_ms"] * 1e3)
	rows, ratio := buildBudget(routedUS-directUS, floorUS, routedUS, self, requestsPerOp, fanOut)
	layer["budget.unattributed_ratio"] = ratio
	return rows
}

// scrapeFleet scrapes every child, in children() order: router,
// primary, standby.
func scrapeFleet(client *http.Client, f *fleet) ([]promSample, error) {
	var out []promSample
	for _, c := range f.children() {
		s, err := scrape(client, c.base)
		if err != nil {
			return nil, fmt.Errorf("scrape %s: %w", c.name, err)
		}
		out = append(out, s)
	}
	return out, nil
}

// counterLayers fills the per-layer figures that are deltas of the
// children's own counters over the window. primaryNow is the primary's
// scrape after the window, for the gauges.
func counterLayers(layer map[string]float64, router, primary, primaryNow promSample) {
	const us = 1e6
	if n := router.family("rrc_router_request_seconds_count"); n > 0 {
		layer["router.handler_mean_us"] = router.family("rrc_router_request_seconds_sum") / n * us
	}
	layer["router.retries"] = router["rrc_router_retries_total"]
	layer["router.errors"] = router.family("rrc_router_errors_total")
	layer["router.shed"] = router["rrc_router_shed_total"]
	for name, endpoint := range map[string]string{
		"consume": "/consume", "recommend_user": "/recommend/user", "recommend_batch": "/recommend/batch",
	} {
		layer["server.handler_mean_us."+name] = primary.histMean("rrc_http_request_seconds", `{endpoint="`+endpoint+`"}`) * us
	}
	layer["server.shed_429"] = primary["rrc_shed_total"]
	layer["server.timeouts"] = primary["rrc_timeouts_total"]
	layer["server.fallbacks"] = primary["rrc_fallbacks_total"]

	hits, misses := primary["rrc_rescache_hits_total"], primary["rrc_rescache_misses_total"]
	if hits+misses > 0 {
		layer["rescache.hit_ratio"] = hits / (hits + misses)
	}
	if misses > 0 {
		// The cache exports no fill counter; every miss that scores
		// fills once, so misses stand in for puts.
		layer["rescache.useful_fill_ratio"] = hits / misses
	}
	layer["rescache.invalidations"] = primary["rrc_rescache_invalidations_total"]
	layer["rescache.evictions"] = primary["rrc_rescache_evictions_total"]
	layer["rescache.entries"] = primaryNow["rrc_rescache_entries"]

	layer["shard.snapshots"] = primary["rrc_online_snapshots"]
	lo, hi := math.Inf(1), 0.0
	for _, v := range primaryNow.byLabel("rrc_shard_sessions") {
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	if lo > 0 && !math.IsInf(lo, 1) {
		layer["shard.load_max_over_min"] = hi / lo
	}

	appends := primary["rrc_wal_append_seconds_count"]
	layer["wal.appends"] = appends
	layer["wal.append_mean_us"] = primary.histMean("rrc_wal_append_seconds", "") * us
	layer["wal.fsync_mean_us"] = primary.histMean("rrc_wal_fsync_seconds", "") * us
	if appends > 0 {
		layer["wal.fsyncs_per_append"] = primary["rrc_wal_fsync_seconds_count"] / appends
	}
	layer["engine.recommends"] = primary["rrc_engine_recommend_seconds_count"]
	layer["engine.recommend_mean_us"] = primary.histMean("rrc_engine_recommend_seconds", "") * us
	layer["engine.candidates_mean"] = primary.histMean("rrc_engine_candidates", "")
}

// awaitCaughtUp waits until the standby has applied as many records as
// the primary held after the window (the sum of per-shard applied LSNs,
// which both export).
func awaitCaughtUp(ctx context.Context, client *http.Client, f *fleet, primaryLSN float64) error {
	deadline := time.Now().Add(readyDeadline)
	for {
		s, err := scrape(client, f.standby.base)
		if err == nil && s["rrc_online_applied_lsn"] >= primaryLSN {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("standby not caught up within %s (last scrape error: %v); log tail:\n%s",
				readyDeadline, err, f.standby.logTail())
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// currentEnv describes this process's box and build.
func currentEnv(commit string) environment {
	return environment{
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Commit:     commit,
		Clients:    runtime.NumCPU(), // the load model: one closed-loop client per CPU
	}
}
