// Command rrc-router is the stateless front end for an rrc-server
// fleet: one replicated primary/standby pair, or several pairs each
// owning a partition of the user-key space. Point clients at the
// router; it health-probes every backend, routes keyed requests to the
// owning partition (shard.UserShard over the "user" field), routes
// writes to each partition's current primary (by replication epoch),
// sends a user's reads to that same node (a follower answers only when
// it cannot), spreads stateless reads over healthy nodes, and drives or
// follows failover automatically — per partition, so one pair's outage
// never sheds another pair's keys.
//
// Endpoints (mirrors the rrc-server traffic surface):
//
//	GET  /healthz          → {"status":"ok"} while the process is alive
//	GET  /readyz           → 200 while a write target and ≥1 read
//	                         backend exist; body lists per-node state
//	GET  /metrics          → rrc_router_* Prometheus families
//	POST /consume          → proxied to the highest-epoch unfenced primary
//	POST /recommend        → proxied to any healthy node
//	POST /recommend/batch  → proxied to any healthy node
//	POST /recommend/user   → proxied to the write target; a follower
//	                         answers only when it cannot
//
// Topology comes from -nodes (comma-separated base URLs) or -topology
// (a file, re-read on mtime change — editing it is the whole "add a
// node" procedure). A flat file — one URL per line — is a single
// partition owning every key. A partitioned file names each pair's
// slice:
//
//	partitions 2
//	partition 0 http://a:8395 http://b:8396
//	partition 1 http://c:8395 http://d:8396
//
// Requests carry propagated deadlines (X-RRC-Deadline-Ms) and each
// partition's epoch (X-RRC-Epoch, which fences deposed primaries on
// contact); a node answering 421 (it owns a different slice than the
// file claims) is folded out of rotation and counted. Retries are
// bounded per client by a token-bucket retry budget. Usage:
//
//	rrc-router -addr :8394 -nodes http://a:8395,http://b:8396 -auto-promote
//	rrc-router -addr :8394 -topology fleet.topo -auto-promote
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"tsppr/internal/obs"
	"tsppr/internal/router"
)

func main() {
	var (
		addr     = flag.String("addr", ":8394", "listen address")
		nodesCSV = flag.String("nodes", "", "comma-separated backend base URLs (e.g. http://a:8395,http://b:8396)")
		topology = flag.String("topology", "", "topology file: one backend base URL per line, # comments; re-read when its mtime changes (overrides -nodes)")

		probeInterval = flag.Duration("probe-interval", 500*time.Millisecond, "backend health-probe period")
		probeTimeout  = flag.Duration("probe-timeout", 0, "per-probe HTTP timeout (0 = probe interval)")
		probeFails    = flag.Int("probe-fails", 3, "probe rounds without a write target before failover action")
		autoPromote   = flag.Bool("auto-promote", false, "promote the standby that has applied the most (POST /admin/promote) after -probe-fails rounds without a primary")

		deadline     = flag.Duration("deadline", 2*time.Second, "default end-to-end deadline per client request (header X-RRC-Deadline-Ms lowers it)")
		tryTimeout   = flag.Duration("try-timeout", time.Second, "per-upstream-attempt timeout within the deadline")
		maxAttempts  = flag.Int("max-attempts", 3, "max upstream attempts per request, including the first")
		retryBudget  = flag.Float64("retry-budget", 0.1, "retry tokens earned per incoming request (retries per request, fleet-wide bound)")
		retryBurst   = flag.Float64("retry-burst", 10, "max banked retry tokens per client")
		retryBackoff = flag.Duration("retry-backoff", 25*time.Millisecond, "pause before re-attempting a write")

		drainTimeout = flag.Duration("drain-timeout", 10*time.Second, "graceful-shutdown drain budget")
	)
	flag.Parse()

	if *nodesCSV == "" && *topology == "" {
		fmt.Fprintln(os.Stderr, "rrc-router: one of -nodes or -topology is required")
		os.Exit(2)
	}
	var nodes []string
	for _, n := range strings.Split(*nodesCSV, ",") {
		if n = strings.TrimSpace(n); n != "" {
			nodes = append(nodes, strings.TrimRight(n, "/"))
		}
	}

	reg := obs.NewRegistry()
	reg.GoRuntime()
	rt, err := router.New(router.Config{
		Nodes:         nodes,
		TopologyPath:  *topology,
		ProbeInterval: *probeInterval,
		ProbeTimeout:  *probeTimeout,
		ProbeFails:    *probeFails,
		AutoPromote:   *autoPromote,
		Deadline:      *deadline,
		TryTimeout:    *tryTimeout,
		MaxAttempts:   *maxAttempts,
		RetryBudget:   *retryBudget,
		RetryBurst:    *retryBurst,
		RetryBackoff:  *retryBackoff,
		Metrics:       reg,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "rrc-router:", err)
		os.Exit(2)
	}
	rt.Start()
	defer rt.Stop()

	// Same header/idle bounds as rrc-server: a client that opens
	// connections and never finishes a header must not hold router
	// goroutines and sockets forever.
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           rt.Routes(),
		ReadHeaderTimeout: 5 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	go func() {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
		s := <-sig
		log.Printf("rrc-router: %s: draining (budget %s)", s, *drainTimeout)
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := httpSrv.Shutdown(ctx); err != nil {
			log.Printf("rrc-router: drain incomplete: %v", err)
		}
	}()

	log.Printf("rrc-router: listening on %s over %d node(s)", *addr, len(rt.Nodes()))
	if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatalf("rrc-router: %v", err)
	}
	log.Printf("rrc-router: bye")
}
