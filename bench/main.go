// Command bench is the repository's benchmark: one command that builds
// rrc-server and rrc-router from the checkout it sits in, boots them as
// child processes (router → server, plus a -follow standby where the
// workload replicates) on a seeded 10⁵-user fixture, drives one of four
// named workloads through the router over real sockets, checks sampled
// answers against an in-process oracle, and prints every metric by name
// with its unit. README.md defines the workloads and metrics.
//
//	go run -C bench . -workload read_hot -seed 1            # end-to-end metrics
//	go run -C bench . -workload all -seed 1 -trace 1        # per-layer metrics + budget table
//	go run -C bench . -compare a.jsonl b.jsonl              # two sets of -out records
//
// The last line of standard output of a single-workload run is one JSON
// object {"correct","attempted","failed","metrics"}.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

func main() { os.Exit(run()) }

func run() int {
	var (
		workloadName = flag.String("workload", "all", "read_hot, session, ingest_replicated, batch_stateless or all")
		seed         = flag.Int64("seed", 1, "seed of the fixture and of every request stream")
		seconds      = flag.Int("seconds", 10, "length of the measure window")
		trace        = flag.Int("trace", 0, "1: report the per-layer metrics and the budget table instead of the end-to-end metrics")
		out          = flag.String("out", "", "append each run's full record to this file as one JSON line (-compare: write the comparison here)")
		compareMode  = flag.Bool("compare", false, "compare two files of -out records: bench -compare A.jsonl B.jsonl")
	)
	flag.Parse()

	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	if *compareMode {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare takes two files of -out records")
			return 2
		}
		return compareFiles(filepath.Join(root, "BENCHMARK.json"), flag.Arg(0), flag.Arg(1), *out)
	}
	var selected []workload
	if *workloadName == "all" {
		selected = workloads
	} else if w, ok := findWorkload(*workloadName); ok {
		selected = []workload{w}
	} else {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workloadName)
		return 2
	}
	if *seconds < 1 || *trace < 0 || *trace > 1 {
		fmt.Fprintln(os.Stderr, "bench: need -seconds >= 1 and -trace 0 or 1")
		return 2
	}

	// Children die and the work dir goes on every way out: normal
	// return, error, SIGINT, SIGTERM.
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	keepDir := filepath.Join(root, ".bench_work")
	workDir := filepath.Join(keepDir, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	defer os.RemoveAll(workDir)

	cfg := config{
		workDir: workDir, binDir: filepath.Join(workDir, "bin"), keepDir: keepDir,
		env:  currentEnv(commitOf(root)),
		seed: *seed, seconds: *seconds, trace: *trace == 1, users: fixtureUsers, items: fixtureItems,
	}
	start := time.Now()
	if err := buildChildren(ctx, root, cfg.binDir); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	cfg.buildS = time.Since(start).Seconds()

	status := 0
	for _, w := range selected {
		rec, err := runWorkload(ctx, cfg, w)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			return 1
		}
		if *out != "" {
			if err := appendRecord(*out, rec); err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
		}
		if err := report(rec); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		if !rec.Correct {
			status = 1
		}
	}
	return status
}

// findRoot walks up from the working directory to the checkout root:
// the directory whose go.mod declares module tsppr. Run as
// `go run -C bench .` that is the parent of the working directory.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.HasPrefix(string(data), "module tsppr\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no go.mod declaring module tsppr above the working directory")
		}
		dir = parent
	}
}

// commitOf names the checkout's commit, or "unknown" outside git.
func commitOf(root string) string {
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func appendRecord(path string, rec *record) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(rec); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// report prints one run: every metric of its mode by name with its
// unit, the budget table of a traced run, and as the last line the
// result object the acceptance driver parses.
func report(rec *record) error {
	defs, values := endToEndMetrics, rec.EndToEnd
	if rec.Trace == 1 {
		defs, values = perLayerMetrics, rec.PerLayer
	}
	fmt.Printf("# %s seed=%d seconds=%d users=%d clients=%d nproc=%d %s commit=%s\n",
		rec.Workload, rec.Seed, rec.Seconds, rec.Users, rec.Env.Clients, rec.Env.NumCPU, rec.Env.GoVersion, rec.Env.Commit)
	for _, d := range defs {
		fmt.Printf("%-42s %14.4f %s\n", d.name, values[d.name].Value, d.unit)
	}
	fmt.Printf("%-42s %14d of %d attempted, %d oracle mismatches; %d ops in the window\n",
		"failed", rec.Failed, rec.Attempted, rec.Mismatches, rec.WindowOps)
	if rec.Budget != nil {
		unloaded, loaded := rec.PerLayer["client.unloaded_op_p50_ms"].Value*1e3, rec.PerLayer["client.op_p50_ms"].Value*1e3
		fmt.Printf("budget of client.unloaded_op_p50_ms = %.1f us (top costs: %s)\n", unloaded, strings.Join(rec.TopCosts, ", "))
		for _, row := range rec.Budget {
			fmt.Printf("  %-14s %10.1f us\n", row.Layer, row.US)
		}
		fmt.Printf("under %d clients client.op_p50_ms = %.1f us: the load adds %+.1f us\n", rec.Env.Clients, loaded, loaded-unloaded)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rec.Correct, rec.Attempted, rec.Failed, values})
	if err != nil {
		return fmt.Errorf("result line: %w", err) // a NaN metric
	}
	fmt.Printf("%s\n", line)
	return nil
}
