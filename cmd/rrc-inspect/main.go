// Command rrc-inspect prints diagnostics of a trained TS-PPR model on the
// quick gowalla-sim workload: the per-user effective feature weights
// w_u = A_uᵀu (the model's personalized weighting of IP/IR/RE/DF), their
// population spread, and the magnitude split between the static and
// dynamic terms of the preference function.
//
// With -validate, it instead streams the given TSV event logs and reports
// per-file bad-line counts and dataset invariant violations (non-dense
// user/item ids, empty sequences, ungrouped user blocks) without loading
// the datasets into memory; the exit code is nonzero when any file has
// problems.
//
// With -wal, it stream-verifies an rrc-server write-ahead event log
// directory: per-segment record counts, CRC failures, and torn tails,
// without mutating anything (unlike server startup, it never truncates).
// A sharded events root (-shards > 1: shard-*/ subdirectories) is
// detected automatically and every shard's WAL is verified with
// per-shard LSN/corruption summaries. The exit code is nonzero when any
// segment of any shard has CRC failures or a torn tail.
//
// With -expfmt, it validates a Prometheus text exposition — a saved
// GET /metrics body or a CLI -metrics-out file — and exits nonzero on
// the first format violation. "-" reads stdin, which is how the CI
// metrics smoke test pipes a live scrape through it.
//
// With -epoch, it prints the replication epoch and promotion history
// persisted under an events root; with -diverge, it compares two
// events roots record-by-record and reports, per shard, where their
// WAL timelines fork (nonzero exit on any fork) — the post-failover
// "what did we lose" question answered from the directories alone.
//
// With -topology, it validates an rrc-router topology file (flat or
// partitioned) offline with the router's own parser — overlapping key
// ownership, empty partitions, and duplicate nodes exit nonzero before
// the file ever reaches a live router. With -owner ... -partitions P, it
// prints the partition owning a user id (for scripts bucketing traffic).
//
//	rrc-inspect                             # model diagnostics
//	rrc-inspect -validate a.tsv b.tsv       # dataset health check
//	rrc-inspect -wal events/                # event-log health check
//	rrc-inspect -epoch events/              # replication epoch + history
//	rrc-inspect -diverge old/ new/          # where did two nodes fork?
//	rrc-inspect -topology topo.conf         # topology file health check
//	rrc-inspect -owner 12345 -partitions 2  # key → partition oracle
//	curl -s :8080/metrics | rrc-inspect -expfmt -
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"

	"tsppr/internal/cli"
	"tsppr/internal/core"
	"tsppr/internal/datagen"
	"tsppr/internal/dataset"
	"tsppr/internal/engine"
	"tsppr/internal/eval"
	"tsppr/internal/experiments"
	"tsppr/internal/features"
	"tsppr/internal/linalg"
	"tsppr/internal/obs"
	"tsppr/internal/rec"
	"tsppr/internal/seq"
	"tsppr/internal/wal"
)

func main() {
	validate := flag.Bool("validate", false, "validate TSV event logs given as arguments instead of inspecting a model")
	walDir := flag.String("wal", "", "verify the write-ahead event log in this directory instead of inspecting a model")
	expfmt := flag.String("expfmt", "", "validate a Prometheus text exposition file ('-' reads stdin) instead of inspecting a model")
	epochRoot := flag.String("epoch", "", "print the replication epoch and promotion history persisted under this events root")
	diverge := flag.Bool("diverge", false, "compare the two events roots given as arguments record-by-record and report where their WAL timelines fork")
	topology := flag.String("topology", "", "validate an rrc-router topology file (flat or partitioned) offline; nonzero exit on overlap/ownership errors")
	owner := flag.Int("owner", -1, "print the partition owning this user id under -partitions (for scripts)")
	partitions := flag.Int("partitions", 0, "partition count for -owner")
	flag.Parse()
	var err error
	switch {
	case *validate:
		err = runValidate(flag.Args(), os.Stdout)
	case *walDir != "":
		err = runWALVerify(*walDir, os.Stdout)
	case *expfmt != "":
		err = runExpfmt(*expfmt, os.Stdout)
	case *epochRoot != "":
		err = runEpoch(*epochRoot, os.Stdout)
	case *diverge:
		if len(flag.Args()) != 2 {
			err = fmt.Errorf("-diverge needs exactly two events-root arguments: %w", cli.ErrUsage)
		} else {
			err = runDiverge(flag.Arg(0), flag.Arg(1), os.Stdout)
		}
	case *topology != "":
		err = runTopology(*topology, os.Stdout)
	case *owner >= 0 || *partitions != 0:
		err = runOwner(*owner, *partitions, os.Stdout)
	default:
		err = run()
	}
	if err != nil && err != cli.ErrUsage {
		fmt.Fprintln(os.Stderr, "rrc-inspect:", err)
	}
	os.Exit(cli.ExitCode(err))
}

// runWALVerify streams every segment of the event log once, read-only,
// and prints its health report, mirroring the -validate dataset mode.
// It fails when any record fails its CRC or any segment has a torn
// tail. A sharded events root (rrc-server -shards > 1: shard-*/
// subdirectories) is detected automatically; every shard's WAL is
// verified with per-shard LSN/corruption summaries, and the exit code
// reflects the aggregate.
func runWALVerify(dir string, stdout io.Writer) error {
	shardDirs, err := shardWALDirs(dir)
	if err != nil {
		return err
	}
	if shardDirs == nil {
		return verifyWALDir(dir, "", stdout)
	}
	unhealthy := 0
	for _, sd := range shardDirs {
		if err := verifyWALDir(sd, filepath.Base(sd)+"/", stdout); err != nil {
			fmt.Fprintf(stdout, "%s: UNHEALTHY: %v\n", filepath.Base(sd), err)
			unhealthy++
		}
	}
	fmt.Fprintf(stdout, "sharded root: shards=%d unhealthy=%d\n", len(shardDirs), unhealthy)
	if unhealthy > 0 {
		return fmt.Errorf("%s: %d of %d shard(s) unhealthy", dir, unhealthy, len(shardDirs))
	}
	return nil
}

// shardWALDirs returns the shard-NNN subdirectories of a sharded events
// root in shard order, or nil when dir is a flat (single-shard) log.
func shardWALDirs(dir string) ([]string, error) {
	matches, err := filepath.Glob(filepath.Join(dir, "shard-*"))
	if err != nil {
		return nil, err
	}
	var dirs []string // Glob returns lexical order = shard order (zero-padded)
	for _, m := range matches {
		if fi, err := os.Stat(m); err == nil && fi.IsDir() {
			dirs = append(dirs, m)
		}
	}
	return dirs, nil
}

// verifyWALDir verifies one WAL directory, prefixing each segment line
// with the shard directory name when part of a sharded root.
func verifyWALDir(dir, prefix string, stdout io.Writer) error {
	rep, err := wal.Verify(dir, 0)
	if err != nil {
		return err
	}
	if len(rep.Segments) == 0 {
		return fmt.Errorf("%s: no wal segments found", dir)
	}
	for _, sg := range rep.Segments {
		fmt.Fprintf(stdout, "%s%s: firstLSN=%d bytes=%d records=%d good=%d crcFailures=%d tornTailBytes=%d\n",
			prefix, sg.Name, sg.FirstLSN, sg.Bytes, sg.Records, sg.Good, len(sg.Corrupt), sg.TornTail)
		for _, idx := range sg.Corrupt {
			fmt.Fprintf(stdout, "  violation: record %d (lsn %d) failed CRC32-C\n", idx, sg.FirstLSN+uint64(idx))
		}
		if sg.TornTail > 0 {
			fmt.Fprintf(stdout, "  violation: torn tail of %d bytes (server startup would truncate it)\n", sg.TornTail)
		}
		if len(sg.Corrupt) == 0 && sg.TornTail == 0 {
			fmt.Fprintln(stdout, "  ok")
		}
	}
	last := rep.Segments[len(rep.Segments)-1]
	fmt.Fprintf(stdout, "%stotal: segments=%d records=%d good=%d crcFailures=%d tornSegments=%d nextLSN=%d\n",
		prefix, len(rep.Segments), rep.Records, rep.Good, rep.CorruptRecords, rep.TornSegments,
		last.FirstLSN+uint64(last.Records))
	if !rep.Clean() {
		return fmt.Errorf("%s: %d CRC failure(s), %d torn segment(s)", dir, rep.CorruptRecords, rep.TornSegments)
	}
	return nil
}

// runExpfmt checks that path (or stdin, for "-") parses as Prometheus
// text format 0.0.4 with complete histograms; the CI smoke test pipes a
// live /metrics scrape through this.
func runExpfmt(path string, stdout io.Writer) error {
	var rd io.Reader = os.Stdin
	name := "<stdin>"
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		rd, name = f, path
	}
	if err := obs.ValidateExposition(rd); err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	fmt.Fprintf(stdout, "%s: valid Prometheus text exposition\n", name)
	return nil
}

// runValidate streams each file once and prints its health report. It
// fails when any file has malformed lines or invariant violations.
func runValidate(paths []string, stdout io.Writer) error {
	if len(paths) == 0 {
		return fmt.Errorf("-validate needs at least one TSV file argument: %w", cli.ErrUsage)
	}
	bad := 0
	for _, path := range paths {
		rep, err := dataset.ValidateFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "%s: lines=%d events=%d users=%d items=%d badLines=%d outOfOrder=%d duplicates=%d\n",
			rep.Path, rep.Lines, rep.Events, rep.Users, rep.Items, rep.BadLines, rep.OutOfOrder, rep.Duplicates)
		vs := rep.Violations()
		for _, v := range vs {
			fmt.Fprintf(stdout, "  violation: %s\n", v)
		}
		if len(vs) > 0 {
			bad++
		} else {
			fmt.Fprintln(stdout, "  ok")
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d of %d files failed validation", bad, len(paths))
	}
	return nil
}

func run() error {
	p := experiments.Params{GowallaUsers: 60, LastfmUsers: 30, Quick: true}.Defaults()
	gow, _, err := experiments.Workloads(p)
	if err != nil {
		return err
	}
	// Re-generate with the same preset to recover the hidden profiles.
	cfgGen := datagen.GowallaLike(p.GowallaUsers, p.Seed)
	full, infos, err := datagen.GenerateWithInfo(cfgGen)
	if err != nil {
		return err
	}
	// Map surviving (filtered) users back to their profiles.
	kept := make([]datagen.UserInfo, 0, len(gow.Seqs))
	for u, s := range full.Seqs {
		if int(float64(len(s))*p.TrainFrac) >= p.WindowCap {
			kept = append(kept, infos[u])
		}
	}
	if len(kept) != len(gow.Seqs) {
		return fmt.Errorf("profile mapping mismatch: %d vs %d", len(kept), len(gow.Seqs))
	}
	pl, err := experiments.NewPipeline(gow, p, features.AllFeatures, features.Hyperbolic)
	if err != nil {
		return err
	}
	m, stats, err := pl.TrainTSPPR(p)
	if err != nil {
		return err
	}
	fmt.Printf("steps=%d converged=%v rbar=%.3f\n", stats.Steps, stats.Converged, stats.FinalRBar)

	// Effective per-user feature weights w_u = A_uᵀ u.
	F := m.F
	_ = F
	wts := make([][]float64, 0, m.NumUsers())
	for u := 0; u < m.NumUsers(); u++ {
		wts = append(wts, m.EffectiveFeatureWeights(u))
	}
	names := []string{"IP", "IR", "RE", "DF"}
	for f := 0; f < m.F; f++ {
		var xs []float64
		for _, w := range wts {
			xs = append(xs, w[f])
		}
		mean, sd := meanSD(xs)
		fmt.Printf("w[%s]: mean=%+.3f sd=%.3f\n", names[f], mean, sd)
	}
	for u := 0; u < 6; u++ {
		fmt.Printf("user %d: w=%+.3v  |u|=%.3f\n", u, wts[u], linalg.Norm2(m.U.Row(u)))
	}

	// Static vs dynamic magnitude on test-time candidate scores.
	eng := engine.New(m)
	var statMag, dynMag []float64
	train, test := pl.Train, pl.Test
	for u := 0; u < 10; u++ {
		w := seq.NewWindow(p.WindowCap)
		for _, v := range train[u] {
			w.Push(v)
		}
		var cands []seq.Item
		for _, v := range test[u] {
			if w.Full() {
				cands = w.Candidates(p.Omega, cands[:0])
				for _, c := range cands {
					full := eng.Score(u, c, w)
					stat := 0.0
					if int(c) < m.V.Rows {
						stat = linalg.Dot(m.U.Row(u), m.V.Row(int(c)))
					}
					statMag = append(statMag, math.Abs(stat))
					dynMag = append(dynMag, math.Abs(full-stat))
				}
			}
			w.Push(v)
		}
	}
	ms, _ := meanSD(statMag)
	md, _ := meanSD(dynMag)
	fmt.Printf("candidate score magnitude: |static|=%.4f |dynamic|=%.4f\n", ms, md)

	// Per-user win/loss vs Pop at top-1.
	r, err := eval.Evaluate(train, test, eng.Factory(), eval.Options{WindowCap: p.WindowCap, Omega: p.Omega, TopNs: []int{1}, Seed: 7})
	if err != nil {
		return err
	}
	fmt.Printf("TS-PPR MaAP@1=%.4f MiAP@1=%.4f users=%d events=%d\n", r.MaAP[0], r.MiAP[0], r.UsersEvaluated, r.Events)

	// Correlate learned per-user weights with the generator's hidden
	// profiles, and report per-dominant-type accuracy headroom: an oracle
	// that ranks by the user's true choice weight.
	typeName := []string{"rec", "qual", "fam", "rep"}
	for dom := 1; dom <= 3; dom++ {
		var lw [4]float64
		cnt := 0
		for u, info := range kept {
			if info.Dominant != dom {
				continue
			}
			for f := 0; f < 4 && f < len(wts[u]); f++ {
				lw[f] += wts[u][f]
			}
			cnt++
		}
		if cnt == 0 {
			continue
		}
		for f := range lw {
			lw[f] /= float64(cnt)
		}
		fmt.Printf("dominant=%-4s users=%2d  mean learned w=[IP %+0.2f IR %+0.2f RE %+0.2f DF %+0.2f]\n",
			typeName[dom], cnt, lw[0], lw[1], lw[2], lw[3])
	}
	_ = rec.Context{}
	_ = core.Config{}
	return nil
}

func meanSD(xs []float64) (mean, sd float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	for _, x := range xs {
		sd += (x - mean) * (x - mean)
	}
	return mean, math.Sqrt(sd / float64(len(xs)))
}
