package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"

	"tsppr/internal/core"
	"tsppr/internal/features"
	"tsppr/internal/linalg"
	"tsppr/internal/rngutil"
	"tsppr/internal/seq"
	"tsppr/internal/shard"
	"tsppr/internal/wal"
)

// The fleet's fixed shape. The server flags in fleet.go repeat these
// numbers; they are constants because a benchmark whose shape moves is
// a different benchmark.
const (
	fixtureUsers = 100000
	fixtureItems = fixtureUsers / 5
	windowCap    = 100    // |W|
	omega        = 10     // Ω
	topN         = 10     // n of every recommend request
	shards       = 4      // -shards
	maxSessions  = 262144 // -max-sessions
	latentK      = 40
	featureF     = 4
	userPool     = 40 // distinct items a user's window is drawn from
)

// fixture is everything generated from the seed: a Gaussian TS-PPR
// model (no training — serving cost does not depend on the parameter
// values), every user's full |W|-event window, and both persisted in
// the on-disk formats the children boot from. The harness keeps its
// own copy in memory: the model for the oracle, the windows as the
// oracle's mirror of server state.
type fixture struct {
	users, items int
	model        *core.Model
	windows      []seq.Item // users × windowCap, oldest first
	modelPath    string
	eventsDir    string
}

// window returns user u's fixture window, oldest first.
func (fx *fixture) window(u int) []seq.Item {
	return fx.windows[u*windowCap : (u+1)*windowCap]
}

// userRNG derives one user's generator from the seed alone, so a user's
// window does not depend on how many workers built the fixture.
func userRNG(seed int64, u int) *rngutil.RNG {
	return rngutil.New(uint64(seed)*0x9e3779b97f4a7c15 + uint64(u) + 1)
}

// buildFixture synthesises the model and windows for seed and persists
// them under dir (model.tsppr, events/). Windows go through the real
// ingest path — shard.Open + Pool.Ingest at SyncNever, closed so every
// shard leaves a snapshot — so the children recover them exactly as
// they would recover production state.
func buildFixture(dir string, seed int64, users, items int) (*fixture, error) {
	fx := &fixture{
		users:     users,
		items:     items,
		windows:   make([]seq.Item, users*windowCap),
		modelPath: filepath.Join(dir, "model.tsppr"),
		eventsDir: filepath.Join(dir, "events"),
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	rng := rngutil.New(uint64(seed))
	gauss := func(rows, cols int) *linalg.Matrix {
		m := linalg.NewMatrix(rows, cols)
		for i := range m.Data {
			m.Data[i] = 0.1 * rng.NormFloat64()
		}
		return m
	}
	m := &core.Model{K: latentK, F: featureF, MapType: core.PerUserMap}
	m.U = gauss(users, latentK)
	m.V = gauss(items, latentK)
	m.A = make([]*linalg.Matrix, users)
	for u := range m.A {
		m.A[u] = gauss(latentK, featureF)
	}
	quality := make([]float64, items)
	reratio := make([]float64, items)
	for i := range quality {
		quality[i] = rng.Float64()
		reratio[i] = rng.Float64()
	}
	ex, err := features.FromTables(features.AllFeatures, features.Hyperbolic, windowCap, omega, quality, reratio)
	if err != nil {
		return nil, err
	}
	m.Extractor = ex
	if err := m.Validate(); err != nil {
		return nil, err
	}
	fx.model = m
	if err := m.SaveFile(fx.modelPath); err != nil {
		return nil, err
	}

	pool, err := shard.Open(fx.eventsDir, shard.Config{
		Shards:              shards,
		WindowCap:           windowCap,
		MaxSessionsPerShard: maxSessions / shards,
		NumUsers:            users,
		NumItems:            items,
		Fsync:               wal.SyncNever,
	})
	if err != nil {
		return nil, err
	}
	// One worker per shard: each shard sees its users in id order, so
	// per-shard LSNs are the same on every build of the same seed.
	var wg sync.WaitGroup
	errs := make([]error, shards)
	for w := 0; w < shards; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var personal [userPool]seq.Item
			for u := 0; u < users; u++ {
				if shard.UserShard(u, shards) != w {
					continue
				}
				r := userRNG(seed, u)
				for i := range personal {
					personal[i] = seq.Item(r.Intn(items))
				}
				win := fx.window(u)
				for i := range win {
					win[i] = personal[r.Intn(userPool)]
					if _, _, err := pool.Ingest(u, win[i]); err != nil {
						errs[w] = fmt.Errorf("fixture ingest user %d: %w", u, err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	cerr := pool.Close()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return fx, cerr
}

// copyTree copies the regular files and directories under src to dst.
// Every fleet boots from its own copy of the fixture's events dir, so
// no run ever reads state a previous fleet wrote.
func copyTree(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			// A segment pruned between the listing and the stat is not
			// an error of the walk.
			if os.IsNotExist(err) {
				return nil
			}
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}
