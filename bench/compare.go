package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// benchmarkFile is BENCHMARK.json: the acceptance driver's contract,
// and -compare's source for each metric's direction and bound.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkFile(path string) (*benchmarkFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &b, nil
}

// loadRecords reads a file of -out records, keeping the untraced ones:
// only those carry end-to-end metrics.
func loadRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 16<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if r.Trace == 0 {
			out = append(out, r)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no untraced records", path)
	}
	return out, nil
}

// side summarises one set's runs of one (metric, workload) pair.
type side struct {
	Runs   int     `json:"runs"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Spread float64 `json:"spread"` // (q3 - q1) / median
}

func summarise(values []float64) side {
	s := side{Runs: len(values), Median: median(values)}
	s.Q1, s.Q3 = quartiles(values)
	if s.Median != 0 {
		s.Spread = (s.Q3 - s.Q1) / s.Median
	}
	return s
}

// compareRow is the verdict on one (metric, workload) pair.
type compareRow struct {
	Metric   string  `json:"metric"`
	Workload string  `json:"workload"`
	Unit     string  `json:"unit"`
	Better   string  `json:"better"`
	Bound    float64 `json:"bound"`
	A        side    `json:"a"`
	B        side    `json:"b"`
	Worse    float64 `json:"worse"` // share of A's median by which B's is worse; negative = better
	Verdict  string  `json:"verdict"`
}

// judge applies the benchmark's rules to one pair of value sets; a[i]
// and b[i] are runs of the same seed. regressed: B's median is worse
// than A's by more than the bound. unresolved: a set's own
// inter-quartile spread exceeds the bound, so the bound cannot tell the
// two apart. improved: B wins at least nine tenths of the paired runs
// (ties for neither) and the medians differ by more than A's own
// inter-quartile distance. same: everything else.
func judge(a, b []float64, better string, bound float64) (sa, sb side, worse float64, verdict string) {
	sa, sb = summarise(a), summarise(b)
	sign := 1.0 // lower is better: a rise is worse
	if better == "higher" {
		sign = -1
	}
	if sa.Median != 0 {
		worse = sign * (sb.Median - sa.Median) / sa.Median
	}
	var wins, pairs int
	for i := range a {
		if a[i] != b[i] {
			pairs++
			if sign*(b[i]-a[i]) < 0 {
				wins++
			}
		}
	}
	switch {
	case sa.Spread > bound || sb.Spread > bound:
		verdict = "unresolved"
	case worse > bound:
		verdict = "regressed"
	case pairs > 0 && float64(wins) >= 0.9*float64(pairs) && sign*(sa.Median-sb.Median) > sa.Q3-sa.Q1:
		verdict = "improved"
	default:
		verdict = "same"
	}
	return sa, sb, worse, verdict
}

// sortRecords orders a set by workload, then seed, keeping file order
// among runs of the same seed: the order in which two sets pair up.
func sortRecords(set []record) {
	sort.SliceStable(set, func(i, j int) bool {
		if set[i].Workload != set[j].Workload {
			return set[i].Workload < set[j].Workload
		}
		return set[i].Seed < set[j].Seed
	})
}

// checkComparable refuses two sorted sets the verdicts would be
// meaningless for: a run that was not correct, runs of another shape
// (users, clients, window length), or sets that do not hold the same
// workloads and seeds run for run — inputs differ by seed, so only
// same-seed runs measure the same work.
func checkComparable(setA, setB []record) error {
	if len(setA) != len(setB) {
		return fmt.Errorf("set A holds %d untraced runs, set B %d", len(setA), len(setB))
	}
	first := setA[0]
	for i := range setA {
		for _, r := range []record{setA[i], setB[i]} {
			if !r.Correct {
				return fmt.Errorf("%s seed %d: the run was not correct (%d of %d failed)", r.Workload, r.Seed, r.Failed, r.Attempted)
			}
			if r.Users != first.Users || r.Seconds != first.Seconds || r.Env.Clients != first.Env.Clients {
				return fmt.Errorf("%s seed %d ran %d users, %d clients, %d s; %s seed %d ran %d, %d, %d",
					r.Workload, r.Seed, r.Users, r.Env.Clients, r.Seconds,
					first.Workload, first.Seed, first.Users, first.Env.Clients, first.Seconds)
			}
		}
		if a, b := setA[i], setB[i]; a.Workload != b.Workload || a.Seed != b.Seed {
			return fmt.Errorf("the sets do not pair up: run %d is %s seed %d in A, %s seed %d in B",
				i, a.Workload, a.Seed, b.Workload, b.Seed)
		}
	}
	return nil
}

// compareFiles judges every (end-to-end metric, workload) pair of two
// record files, prints one row per pair, optionally writes the rows and
// both sets to outPath, and returns the exit code: 1 on any regressed,
// 2 when the sets cannot be compared.
func compareFiles(benchmarkPath, pathA, pathB, outPath string) int {
	bf, err := loadBenchmarkFile(benchmarkPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	setA, err := loadRecords(pathA)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	setB, err := loadRecords(pathB)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	sortRecords(setA)
	sortRecords(setB)
	if err := checkComparable(setA, setB); err != nil {
		fmt.Fprintln(os.Stderr, "bench: -compare:", err)
		return 2
	}
	pick := func(set []record, workload, name string) []float64 {
		var out []float64
		for _, r := range set {
			if m, ok := r.EndToEnd[name]; ok && r.Workload == workload {
				out = append(out, m.Value)
			}
		}
		return out
	}
	var rows []compareRow
	status := 0
	fmt.Printf("%-16s %-18s %5s %12s %8s %12s %8s %8s %7s  %s\n",
		"metric", "workload", "runs", "A median", "A iqr", "B median", "B iqr", "worse", "bound", "verdict")
	for _, m := range bf.EndToEnd {
		for _, w := range bf.Workloads {
			a, b := pick(setA, w.Name, m.Name), pick(setB, w.Name, m.Name)
			if len(a) == 0 {
				continue
			}
			if len(a) != len(b) {
				fmt.Fprintf(os.Stderr, "bench: -compare: %s on %s: %d values in A, %d in B\n", m.Name, w.Name, len(a), len(b))
				return 2
			}
			row := compareRow{Metric: m.Name, Workload: w.Name, Unit: m.Unit, Better: m.Better, Bound: m.Bound}
			row.A, row.B, row.Worse, row.Verdict = judge(a, b, m.Better, m.Bound)
			rows = append(rows, row)
			if row.Verdict == "regressed" {
				status = 1
			}
			fmt.Printf("%-16s %-18s %5d %12.4f %7.1f%% %12.4f %7.1f%% %+7.1f%% %6.0f%%  %s\n",
				row.Metric, row.Workload, row.A.Runs, row.A.Median, 100*row.A.Spread, row.B.Median, 100*row.B.Spread,
				100*row.Worse, 100*row.Bound, row.Verdict)
		}
	}
	if outPath != "" {
		if err := writeComparison(outPath, rows, setA, setB); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
	}
	return status
}

// writeComparison writes the verdict rows and both (sorted) sets as one
// JSON document, one row or record per line so the file diffs.
func writeComparison(path string, rows []compareRow, setA, setB []record) error {
	var doc bytes.Buffer
	section := func(name string, n int, item func(i int) any) error {
		fmt.Fprintf(&doc, "%q: [\n", name)
		for i := 0; i < n; i++ {
			line, err := json.Marshal(item(i))
			if err != nil {
				return err
			}
			doc.Write(line)
			if i < n-1 {
				doc.WriteByte(',')
			}
			doc.WriteByte('\n')
		}
		doc.WriteString("]")
		return nil
	}
	records := func(set []record) func(int) any {
		return func(i int) any { return set[i] }
	}
	doc.WriteString("{\n")
	if err := section("compare", len(rows), func(i int) any { return rows[i] }); err != nil {
		return err
	}
	doc.WriteString(",\n")
	if err := section("set_a", len(setA), records(setA)); err != nil {
		return err
	}
	doc.WriteString(",\n")
	if err := section("set_b", len(setB), records(setB)); err != nil {
		return err
	}
	doc.WriteString("\n}\n")
	return os.WriteFile(path, doc.Bytes(), 0o644)
}
