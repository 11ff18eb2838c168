// Command rrc-server serves online RRC recommendations from a trained
// TS-PPR model over a small JSON HTTP API. The node itself — endpoints,
// online sessions, replication — is package internal/serve; this command
// parses flags, serves on the listener, and turns signals into a reload
// (SIGHUP) or a drain (SIGINT/SIGTERM: in-flight requests finish within
// -drain-timeout, then serve.Server.Close). Usage:
//
//	rrc-server -model model.tsppr -events-dir events/ -addr :8395
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"tsppr/internal/core"
	"tsppr/internal/httpserve"
	"tsppr/internal/rescache"
	"tsppr/internal/serve"
	"tsppr/internal/shard"
	"tsppr/internal/wal"
)

func main() {
	var (
		modelPath    = flag.String("model", "", "trained model file (required; re-read on SIGHUP)")
		addr         = flag.String("addr", ":8395", "listen address")
		maxInFlight  = flag.Int("max-inflight", 64, "concurrent recommend requests before load-shedding with 429")
		reqTimeout   = flag.Duration("request-timeout", 2*time.Second, "per-request scoring deadline")
		drainTimeout = flag.Duration("drain-timeout", 10*time.Second, "graceful-shutdown drain budget")

		pprofAddr = flag.String("pprof-addr", "", "serve net/http/pprof on this address (e.g. localhost:6060); empty disables")

		responseCache = flag.Int("response-cache", rescache.DefaultMaxEntries, "bound on cached /recommend/user responses, invalidated by consume LSN (0 disables)")

		eventsDir     = flag.String("events-dir", "", "durable online sessions (required): the per-user windows' write-ahead event log + snapshots live here")
		shards        = flag.Int("shards", 1, "online failure domains: users are hash-partitioned over this many independent WAL+session shards (fixed per events dir)")
		fsyncPolicy   = flag.String("fsync", "always", "event-log durability: always (lose nothing) or never (page cache)")
		snapshotEvery = flag.Int("snapshot-every", 4096, "minimum appends between periodic snapshots (0 = only at shutdown)")

		partitionFlag = flag.String("partition", "", "partition identity index/count (e.g. 1/3): this node owns only its slice of the user-key space and answers 421 for the rest; fixed per events dir")

		followURL       = flag.String("follow", "", "run as a warm standby tailing this primary's WAL stream (read-only until promoted)")
		peersCSV        = flag.String("peers", "", "comma-separated peer base URLs; a restarting primary checks their epochs and starts fenced if deposed")
		shutdownTimeout = flag.Duration("shutdown-timeout", 30*time.Second, "bound on the graceful shard drain (final snapshots) at shutdown; 0 = unbounded")
	)
	// Deprecated: read only by checkLegacyFlags, until bench/fleet.go drops them.
	flag.Int("window", 0, "must equal the model's |W| if set: the model file defines it")
	flag.Int("omega", 0, "must equal the model's default Ω if set: the model file defines it")
	flag.Int("max-sessions", 0, "ignored: sessions are never evicted")
	flag.Parse()

	if *modelPath == "" {
		fmt.Fprintln(os.Stderr, "rrc-server: -model is required")
		os.Exit(2)
	}
	fsync, err := wal.ParseSyncPolicy(*fsyncPolicy)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rrc-server: -fsync:", err)
		os.Exit(2)
	}
	if *eventsDir == "" {
		fmt.Fprintln(os.Stderr, "rrc-server: -events-dir is required: a node ranks from the per-user windows it keeps there")
		os.Exit(2)
	}
	var partition shard.PartitionID
	if *partitionFlag != "" {
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
	if err := checkLegacyFlags(flag.CommandLine, model, *modelPath); err != nil {
		fmt.Fprintln(os.Stderr, "rrc-server:", err)
		os.Exit(2)
	}
	srv, err := serve.New(model, serve.Options{
		ModelPath:   *modelPath,
		MaxInFlight: *maxInFlight,
		ReqTimeout:  *reqTimeout,

		EventsDir:     *eventsDir,
		CacheEntries:  *responseCache,
		Shards:        *shards,
		Partition:     partition,
		Fsync:         fsync,
		SnapshotEvery: *snapshotEvery,

		FollowURL: *followURL,
		Peers:     splitPeers(*peersCSV),
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "rrc-server:", err)
		os.Exit(1)
	}
	if *pprofAddr != "" {
		go servePprof(*pprofAddr)
	}
	log.Printf("serving model (users=%d items=%d K=%d F=%d |W|=%d Ω=%d) on %s",
		model.NumUsers(), model.NumItems(), model.K, model.F, model.Extractor.WindowCap(), model.Extractor.Omega(), *addr)
	httpSrv := httpserve.New(srv, httpserve.Config{
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       15 * time.Second,
		WriteTimeout:      *reqTimeout + 15*time.Second,
		IdleTimeout:       2 * time.Minute,
	})

	// SIGHUP hot-reloads the model; SIGINT/SIGTERM drain and exit.
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	go srv.WatchReload(hup)

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
		// The listener has drained: stop the node under the
		// -shutdown-timeout bound, so one wedged shard cannot hold the
		// process hostage. A shard that misses the deadline loses only its
		// final snapshot; its WAL remains authoritative for recovery.
		missed, err := srv.Close(*shutdownTimeout)
		for _, i := range missed {
			log.Printf("shard %d missed the %s shutdown deadline; its WAL remains authoritative", i, *shutdownTimeout)
		}
		if err != nil {
			log.Printf("event log close: %v", err)
		}
		close(idle)
	}()
	if err := httpSrv.ListenAndServe(*addr); err != nil && !errors.Is(err, http.ErrServerClosed) {
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

// checkLegacyFlags vets the flags bench/fleet.go still passes against m.
func checkLegacyFlags(fs *flag.FlagSet, m *core.Model, modelPath string) (err error) {
	fs.Visit(func(f *flag.Flag) {
		name, want := "|W|", m.Extractor.WindowCap()
		switch {
		case f.Name == "max-sessions":
			log.Printf("rrc-server: -max-sessions is ignored: sessions are never evicted")
			return
		case f.Name == "omega":
			name, want = "Ω", m.Extractor.Omega()
		case f.Name != "window":
			return
		}
		if f.Value.String() != strconv.Itoa(want) && err == nil {
			err = fmt.Errorf("-%s %s disagrees with %s = %d recorded in %s: the model file defines it, drop the flag", f.Name, f.Value, name, want, modelPath)
		}
	})
	return err
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
