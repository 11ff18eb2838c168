package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// tinyFixture builds a fixture small enough for a unit test.
func tinyFixture(t *testing.T, seed int64) *fixture {
	t.Helper()
	fx, err := buildFixture(t.TempDir(), seed, 2000, 400)
	if err != nil {
		t.Fatal(err)
	}
	return fx
}

// head renders the first n requests of client 0 of 2 as bytes.
func head(fx *fixture, w workload, seed int64, n int) []byte {
	var out bytes.Buffer
	s := newStream(fx, w, seed, 0, 2)
	for i := 0; i < n; {
		for _, r := range s.next() {
			out.WriteString(r.path)
			out.Write(r.body)
			out.WriteByte('\n')
			i++
		}
	}
	return out.Bytes()
}

func TestStreamsAreAFunctionOfTheSeed(t *testing.T) {
	fx := tinyFixture(t, 7)
	again := tinyFixture(t, 7)
	for _, w := range workloads {
		n := 1000
		if w.name == "batch_stateless" {
			n = 20 // 20 batch requests are 1280 entries
		}
		a := head(fx, w, 7, n)
		if !bytes.Equal(a, head(again, w, 7, n)) {
			t.Errorf("%s: same seed, different first %d requests", w.name, n)
		}
		if bytes.Equal(a, head(fx, w, 8, n)) {
			t.Errorf("%s: seeds 7 and 8 gave the same first %d requests", w.name, n)
		}
	}
}

func TestClientsOwnDisjointUsers(t *testing.T) {
	fx := tinyFixture(t, 1)
	w, _ := findWorkload("session")
	for c := 0; c < 3; c++ {
		s := newStream(fx, w, 1, c, 3)
		for i := 0; i < 500; i++ {
			if u := s.drawUser(); u%3 != c || u < 0 || u >= fx.users {
				t.Fatalf("client %d of 3 drew user %d", c, u)
			}
		}
	}
}

func TestPercentileAndQuartiles(t *testing.T) {
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{{50, 5}, {90, 9}, {95, 10}, {99, 10}, {10, 1}, {1, 1}} {
		if got := percentile(ten, c.p); got != c.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile(nil) = %v", got)
	}
	if got := median([]float64{9, 1, 5, 3}); got != 4 {
		t.Errorf("median = %v, want 4", got)
	}
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	if q1, q3 = quartiles([]float64{1, 2, 4, 8, 16}); q1 != 1.5 || q3 != 12 {
		t.Errorf("quartiles(1,2,4,8,16) = %v, %v; want 1.5, 12", q1, q3)
	}
}

func TestSortedMS(t *testing.T) {
	got := sortedMS([]time.Duration{3 * time.Millisecond, 500 * time.Microsecond, 2 * time.Millisecond})
	if want := []float64{0.5, 2, 3}; !equalFloats(got, want) {
		t.Errorf("sortedMS = %v, want %v", got, want)
	}
}

func equalFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Abs(a[i]-b[i]) > 1e-12 {
			return false
		}
	}
	return true
}

// TestPromParser reads a capture of a real rrc-server's GET /metrics
// (three consumes and three /recommend/user, two of them cache hits).
func TestPromParser(t *testing.T) {
	f, err := os.Open(filepath.Join("testdata", "server_metrics.txt"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	after, err := parseProm(f)
	if err != nil {
		t.Fatal(err)
	}
	if got := after[`rrc_http_requests_total{endpoint="/consume"}`]; got != 3 {
		t.Errorf("labelled counter = %v, want 3", got)
	}
	if got := after.family("rrc_http_requests_total"); got != 6 {
		t.Errorf("family sum = %v, want 6", got)
	}
	if got := after.byLabel("rrc_shard_sessions"); len(got) != 4 || got[`{shard="0"}`] != 25209 {
		t.Errorf("byLabel(rrc_shard_sessions) = %v", got)
	}
	if got := after["rrc_online_applied_lsn"]; got != 10000003 {
		t.Errorf("exponent-formatted gauge = %v, want 10000003", got)
	}
	// A delta against an earlier scrape: one consume of 1 ms before.
	before := promSample{
		`rrc_http_request_seconds_sum{endpoint="/consume"}`:   0.001,
		`rrc_http_request_seconds_count{endpoint="/consume"}`: 1,
	}
	d := after.sub(before)
	want := (0.0025802150000000003 - 0.001) / 2
	if got := d.histMean("rrc_http_request_seconds", `{endpoint="/consume"}`); math.Abs(got-want) > 1e-15 {
		t.Errorf("histogram delta mean = %v, want %v", got, want)
	}
	if got := d.histMean("rrc_http_request_seconds", `{endpoint="/recommend"}`); got != 0 {
		t.Errorf("histogram mean without observations = %v, want 0", got)
	}
	if got := d.histMean("rrc_wal_fsync_seconds", ""); math.Abs(got-0.002188179/3) > 1e-15 {
		t.Errorf("unlabelled histogram mean = %v", got)
	}
	if _, err := parseProm(bytes.NewBufferString("rrc_broken\n")); err == nil {
		t.Error("a sample line without a value parsed")
	}
}

func TestBudgetArithmetic(t *testing.T) {
	self := map[string][]float64{
		"json":   {10, 12, 14},
		"engine": {40, 40, 400},
		"seq":    {20, 20, 20},
		"wal":    {0, 0, 300}, // the median op does not touch the WAL
	}
	rows, ratio := buildBudget(100, 50, 500, self, 2, 2)
	want := map[string]float64{
		"router.hop": 100, "http.floor": 100, "json": 12, "shard": 0, "rescache": 0,
		"seq": 10, "engine": 20, "wal": 0, "unattributed": 258,
	}
	if len(rows) != len(want) {
		t.Fatalf("%d rows, want %d: %v", len(rows), len(want), rows)
	}
	var sum float64
	for _, r := range rows {
		if math.Abs(r.US-want[r.Layer]) > 1e-9 {
			t.Errorf("row %s = %v, want %v", r.Layer, r.US, want[r.Layer])
		}
		sum += r.US
	}
	if math.Abs(sum-500) > 1e-9 {
		t.Errorf("rows sum to %v, want the unloaded op's 500", sum)
	}
	if math.Abs(ratio-258.0/500) > 1e-12 {
		t.Errorf("unattributed ratio = %v, want %v", ratio, 258.0/500)
	}
	if got := topCosts(rows, 3); len(got) != 3 || got[0] != "router.hop" || got[1] != "http.floor" || got[2] != "engine" {
		t.Errorf("top costs = %v", got)
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	tr := &tracer{spans: []span{
		{Req: 0, ID: 0, Parent: -1, Layer: "handler", StartNS: 0, EndNS: 10000},
		{Req: 0, ID: 1, Parent: 0, Layer: "json", Name: "decode", StartNS: 1000, EndNS: 3000},
		{Req: 0, ID: 2, Parent: 0, Layer: "engine", Name: "Recommend", StartNS: 3000, EndNS: 8000},
		{Req: 1, ID: 3, Parent: -1, Layer: "handler", StartNS: 10000, EndNS: 14000},
		{Req: 1, ID: 4, Parent: 3, Layer: "json", Name: "decode", StartNS: 10000, EndNS: 13000},
	}}
	self := tr.selfTimes()
	if !equalFloats(self["handler"], []float64{3, 1}) || !equalFloats(self["json"], []float64{2, 3}) || !equalFloats(self["engine"], []float64{5, 0}) {
		t.Errorf("self times = %v", self)
	}
	if got := tr.medianByName("json", "decode"); got != 2.5 {
		t.Errorf("median json.decode = %v, want 2.5", got)
	}
}

func TestJudge(t *testing.T) {
	a := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	for _, c := range []struct {
		name   string
		b      []float64
		better string
		want   string
	}{
		{"same", []float64{100, 100, 100, 101, 101, 99, 99, 100, 100, 100}, "lower", "same"},
		{"slower", []float64{120, 121, 119, 120, 122, 118, 120, 121, 119, 120}, "lower", "regressed"},
		{"faster", []float64{90, 91, 89, 90, 92, 88, 90, 91, 89, 90}, "lower", "improved"},
		{"more is better, got less", []float64{80, 81, 79, 80, 82, 78, 80, 81, 79, 80}, "higher", "regressed"},
		{"noisy", []float64{60, 140, 70, 130, 100, 100, 65, 135, 90, 110}, "lower", "unresolved"},
	} {
		if _, _, _, got := judge(a, c.b, c.better, 0.10); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

// untracedRun is one record as -compare sees it.
func untracedRun(workload string, seed int64, throughput float64) record {
	return record{
		Workload: workload, Seed: seed, Seconds: 10, Users: fixtureUsers, Correct: true, Attempted: 1,
		Env:      environment{Clients: 2},
		EndToEnd: map[string]metric{"throughput_rps": {throughput, "1/s"}},
	}
}

// writeSet writes records as an -out file.
func writeSet(t *testing.T, recs ...record) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "set.jsonl")
	for i := range recs {
		if err := appendRecord(path, &recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	return path
}

// TestCompareFiles: a set of runs that all share one seed is still a
// set of that many runs, and sets that do not measure the same work are
// refused, not judged.
func TestCompareFiles(t *testing.T) {
	benchmark := filepath.Join("..", "BENCHMARK.json")
	sameSeed := func(values ...float64) []record {
		var recs []record
		for _, v := range values {
			recs = append(recs, untracedRun("read_hot", 1, v))
		}
		return recs
	}
	a := writeSet(t, sameSeed(100, 101, 99, 100, 102)...)
	out := filepath.Join(t.TempDir(), "cmp.json")
	if code := compareFiles(benchmark, a, writeSet(t, sameSeed(60, 61, 59, 60, 62)...), out); code != 1 {
		t.Errorf("five same-seed runs 40%% slower: exit %d, want 1 (regressed)", code)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Compare []compareRow `json:"compare"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Compare) != 1 || doc.Compare[0].A.Runs != 5 || doc.Compare[0].B.Runs != 5 || doc.Compare[0].A.Spread == 0 {
		t.Errorf("same-seed runs collapsed: %+v", doc.Compare)
	}
	if code := compareFiles(benchmark, a, writeSet(t, sameSeed(60, 140, 70, 130, 100)...), ""); code != 0 {
		t.Errorf("noisy same-seed set: exit %d, want 0 (unresolved)", code)
	}

	other := func(change func(*record)) string {
		recs := sameSeed(100, 101, 99, 100, 102)
		change(&recs[4])
		return writeSet(t, recs...)
	}
	for name, b := range map[string]string{
		"another seed":     other(func(r *record) { r.Seed = 2 }),
		"another workload": other(func(r *record) { r.Workload = "session" }),
		"fewer users":      other(func(r *record) { r.Users = 5000 }),
		"more clients":     other(func(r *record) { r.Env.Clients = 8 }),
		"longer window":    other(func(r *record) { r.Seconds = 30 }),
		"an incorrect run": other(func(r *record) { r.Correct = false }),
		"one run short":    writeSet(t, sameSeed(100, 101, 99, 100)...),
	} {
		if code := compareFiles(benchmark, a, b, ""); code != 2 {
			t.Errorf("%s: exit %d, want 2 (refused)", name, code)
		}
	}
}

// TestBenchmarkFileMatchesHarness keeps BENCHMARK.json, the acceptance
// driver's view, in step with what the harness emits.
func TestBenchmarkFileMatchesHarness(t *testing.T) {
	bf, err := loadBenchmarkFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the harness", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.name || bf.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q/%q, harness %q/%q", i, bf.Workloads[i].Name, bf.Workloads[i].Why, w.name, w.why)
		}
	}
	if len(bf.EndToEnd) != len(endToEndMetrics) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the harness", len(bf.EndToEnd), len(endToEndMetrics))
	}
	for i, d := range endToEndMetrics {
		if got := bf.EndToEnd[i]; got.Name != d.name || got.Unit != d.unit {
			t.Errorf("end-to-end %d: BENCHMARK.json has %s [%s], harness %s [%s]", i, got.Name, got.Unit, d.name, d.unit)
		}
	}
	if len(bf.PerLayer) != len(perLayerMetrics) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the harness", len(bf.PerLayer), len(perLayerMetrics))
	}
	for i, d := range perLayerMetrics {
		if got := bf.PerLayer[i]; got.Name != d.name || got.Unit != d.unit {
			t.Errorf("per-layer %d: BENCHMARK.json has %s [%s], harness %s [%s]", i, got.Name, got.Unit, d.name, d.unit)
		}
	}
}

// TestSmoke boots the real fleet at 2,000 users with 2 s windows, every
// workload, traced, and checks that each run is correct and emits every
// metric BENCHMARK.json names exactly once.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots child processes")
	}
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	bf, err := loadBenchmarkFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	work := t.TempDir()
	cfg := config{
		workDir: work, binDir: filepath.Join(work, "bin"), keepDir: work,
		env:  currentEnv("test"),
		seed: 1, seconds: 2, trace: true, users: 2000, items: 400,
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := buildChildren(ctx, root, cfg.binDir); err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		rec, err := runWorkload(ctx, cfg, w)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !rec.Correct || rec.Failed != 0 || rec.Mismatches != 0 || rec.Attempted == 0 {
			t.Errorf("%s: correct=%v failed=%d mismatches=%d attempted=%d", w.name, rec.Correct, rec.Failed, rec.Mismatches, rec.Attempted)
		}
		if len(rec.EndToEnd) != len(bf.EndToEnd) || len(rec.PerLayer) != len(bf.PerLayer) {
			t.Errorf("%s: emitted %d+%d metrics, BENCHMARK.json names %d+%d", w.name,
				len(rec.EndToEnd), len(rec.PerLayer), len(bf.EndToEnd), len(bf.PerLayer))
		}
		for _, m := range bf.EndToEnd {
			if got, ok := rec.EndToEnd[m.Name]; !ok || got.Unit != m.Unit || !(got.Value > 0) {
				t.Errorf("%s: end-to-end %s = %+v (present %v), want a positive value in %s", w.name, m.Name, got, ok, m.Unit)
			}
		}
		for _, m := range bf.PerLayer {
			if got, ok := rec.PerLayer[m.Name]; !ok || got.Unit != m.Unit || math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
				t.Errorf("%s: per-layer %s = %+v (present %v), want a finite value in %s", w.name, m.Name, got, ok, m.Unit)
			}
		}
		if len(rec.Budget) == 0 || len(rec.TopCosts) != 3 {
			t.Errorf("%s: budget %v, top costs %v", w.name, rec.Budget, rec.TopCosts)
		}
		if _, err := os.Stat(filepath.Join(work, "trace-"+w.name+".jsonl")); err != nil {
			t.Errorf("%s: %v", w.name, err)
		}
	}
}
