package tsppr_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
	"time"

	"tsppr/internal/core"
	"tsppr/internal/datagen"
	"tsppr/internal/engine"
	"tsppr/internal/eval"
	"tsppr/internal/features"
	"tsppr/internal/rec"
	"tsppr/internal/router"
	"tsppr/internal/sampling"
	"tsppr/internal/seq"
	"tsppr/internal/serve"
	"tsppr/internal/shard"
	"tsppr/internal/wal"
)

// TestServedRankingMatchesEngine: what a node serves is the paper's
// ranking. Each user's training sequence is replayed through POST
// /consume; then, at every test event eval's replay scores (window full,
// gap > Ω), the Top-10 from POST /recommend/user must equal
// engine.New(m).Factory()'s list for the same window, item for item and
// score for score, before the event itself is consumed. The served
// lists' per-user events and Top-{1,5,10} hits must equal eval's
// per-user outcomes, and MaAP/MiAP folded from them in user order must
// equal eval's Result bit for bit. Each holds at three topologies: one
// node on one shard, one node on four (the benchmark's shape), and a
// router over two partitions of one node each.
func TestServedRankingMatchesEngine(t *testing.T) {
	const (
		window    = 20
		omega     = 3
		trainFrac = 0.7
		topN      = 10
	)
	dir := t.TempDir()
	cfg := datagen.LastfmLike(20, 11)
	cfg.MinLen, cfg.MaxLen = 120, 260
	cfg.WindowCap = window
	generated, err := datagen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ds, numItems := generated.FilterMinTrain(trainFrac, window).Compact()
	train, test := ds.Split(trainFrac)
	b := features.NewBuilder(numItems, window, omega)
	for _, s := range train {
		b.Add(s)
	}
	ex := b.Build(features.AllFeatures, features.Hyperbolic)
	set, err := sampling.Build(train, ex, sampling.Config{WindowCap: window, Omega: omega, S: 5, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	trained, _, err := core.Train(set, ds.NumUsers(), numItems, ex, core.Config{K: 8, MaxSteps: 10_000, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	// Written by rrc-train's call and read back by rrc-server's.
	path := filepath.Join(dir, "model.tsppr")
	if err := trained.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	m := loadServing(t, path)
	oracle := engine.New(m).Factory()
	topNs := []int{1, 5, 10}
	res, err := eval.Evaluate(train, test, engine.New(m).Factory(), eval.Options{
		WindowCap: window, Omega: omega, TopNs: topNs, KeepPerUser: true,
	})
	if err != nil {
		t.Fatal(err)
	}

	for _, topo := range []struct {
		name               string
		shards, partitions int
	}{
		{"one-shard", 1, 1},
		{"four-shards", 4, 1},
		{"router-two-partitions", 1, 2},
	} {
		t.Run(topo.name, func(t *testing.T) {
			url := servedTopology(t, path, topo.shards, topo.partitions)
			perUser, events, ranked := replayServed(t, url, oracle, train, test, window, omega, topN, topNs)
			t.Logf("%d scored events, %d ranked items", events, ranked)
			if events < 100 || ranked < 5*events {
				t.Fatalf("only %d scored events with %d ranked items: the replay checks too little", events, ranked)
			}
			if !reflect.DeepEqual(perUser, res.PerUser) {
				t.Fatalf("served per-user outcomes %v, eval's %v", perUser, res.PerUser)
			}
			maap, miap := servedPrecision(perUser, len(topNs))
			for i, n := range topNs {
				if maap[i] != res.MaAP[i] || miap[i] != res.MiAP[i] {
					t.Fatalf("@%d: served MaAP %v MiAP %v, eval %v %v", n, maap[i], miap[i], res.MaAP[i], res.MiAP[i])
				}
			}
		})
	}
}

// loadServing loads the model file at path as rrc-server does.
func loadServing(t *testing.T, path string) *core.Model {
	t.Helper()
	m, err := core.LoadServingFile(path)
	if err == nil {
		err = m.Validate()
	}
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// servedTopology boots one node per partition over the model file at
// path, each on shards shards, and returns the base URL clients send
// to: the node's own at one partition, else that of a router in front
// of the nodes, once it has a write target for every partition.
func servedTopology(t *testing.T, path string, shards, partitions int) string {
	t.Helper()
	var layout [][]string
	for i := 0; i < partitions; i++ {
		opts := serve.Options{EventsDir: t.TempDir(), Fsync: wal.SyncNever, Shards: shards}
		if partitions > 1 {
			opts.Partition = shard.PartitionID{Index: i, Count: partitions}
		}
		node, err := serve.New(loadServing(t, path), opts)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { node.Close(0) })
		ts := httptest.NewServer(node)
		t.Cleanup(ts.Close)
		layout = append(layout, []string{ts.URL})
	}
	if partitions == 1 {
		return layout[0][0]
	}
	// A generous probe timeout: a slow /readyz under -race must not cost
	// a partition its write target mid-replay.
	rt, err := router.New(router.Config{Partitions: layout, ProbeInterval: 20 * time.Millisecond, ProbeTimeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()
	t.Cleanup(rt.Stop)
	ts := httptest.NewServer(rt.Routes())
	t.Cleanup(ts.Close)
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		var st router.Status
		resp, err := http.Get(ts.URL + "/readyz")
		if err == nil {
			err = json.NewDecoder(resp.Body).Decode(&st)
			resp.Body.Close()
		}
		if err == nil && len(st.Partitions) == partitions && !slices.ContainsFunc(st.Partitions, func(p router.PartitionStatus) bool { return p.WriteTarget == "" }) {
			return ts.URL
		}
		if time.Now().After(deadline) {
			t.Fatalf("router over %v has no write target for every partition: %+v, %v", layout, st, err)
		}
	}
}

// replayServed replays every user's training sequence, then test
// sequence, through POST /consume at url, and at each test event eval
// scores checks POST /recommend/user's Top-topN against the oracle's
// ranking for the same window. It returns the served lists' per-user
// outcomes and how many events and ranked items it checked.
func replayServed(t *testing.T, url string, oracle rec.Factory, train, test []seq.Sequence, window, omega, topN int, topNs []int) (perUser []eval.UserOutcome, events, ranked int) {
	t.Helper()
	post := func(path string, body, reply any) {
		t.Helper()
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(url+path, "application/json", bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST %s %s: status %d", path, raw, resp.StatusCode)
		}
		if err := json.NewDecoder(resp.Body).Decode(reply); err != nil {
			t.Fatal(err)
		}
	}
	consume := func(u int, v seq.Item) {
		t.Helper()
		var ack struct{ LSN uint64 }
		post("/consume", map[string]int{"user": u, "item": int(v)}, &ack)
	}

	perUser = make([]eval.UserOutcome, len(train))
	for u := range train {
		perUser[u].Hits = make([]int, len(topNs))
		r := oracle.New(uint64(u))
		w := seq.NewWindow(window)
		for _, v := range train[u] {
			consume(u, v)
			w.Push(v)
		}
		for _, v := range test[u] {
			if gap, ok := w.Gap(v); w.Full() && ok && gap > omega {
				var served struct {
					Items  []int
					Scores []float64
				}
				post("/recommend/user", map[string]int{"user": u, "n": topN}, &served)
				want := r.Recommend(&rec.Context{User: u, Window: w, Omega: omega}, topN, nil)
				items, scores := scoredLists(want)
				if !reflect.DeepEqual(served.Items, items) || !reflect.DeepEqual(served.Scores, scores) {
					t.Fatalf("user %d, scored event %d: served %v %v, engine ranks %v %v", u, events, served.Items, served.Scores, items, scores)
				}
				events++
				ranked += len(want)
				perUser[u].Events++
				for i, n := range topNs {
					if slices.Contains(served.Items[:min(n, len(served.Items))], int(v)) {
						perUser[u].Hits[i]++
					}
				}
			}
			consume(u, v)
			w.Push(v)
		}
	}
	return perUser, events, ranked
}

// servedPrecision folds per-user outcomes into MaAP and MiAP (Eq. 22-24)
// in user order: MaAP pools hits over every eligible event, MiAP
// averages each evaluated user's precision.
func servedPrecision(perUser []eval.UserOutcome, nTop int) (maap, miap []float64) {
	maap, miap = make([]float64, nTop), make([]float64, nTop)
	hits := make([]int, nTop)
	events, users := 0, 0
	for _, o := range perUser {
		if o.Events == 0 {
			continue
		}
		events += o.Events
		users++
		for i, h := range o.Hits {
			hits[i] += h
			miap[i] += float64(h) / float64(o.Events)
		}
	}
	for i := range maap {
		maap[i] = float64(hits[i]) / float64(events)
		miap[i] /= float64(users)
	}
	return maap, miap
}

// scoredLists splits a ranking into its item and score lists.
func scoredLists(list []rec.Scored) ([]int, []float64) {
	items, scores := make([]int, len(list)), make([]float64, len(list))
	for i, s := range list {
		items[i], scores[i] = int(s.Item), s.Score
	}
	return items, scores
}
