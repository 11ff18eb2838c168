package tsppr_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tsppr/internal/core"
	"tsppr/internal/datagen"
	"tsppr/internal/dataset"
	"tsppr/internal/faultinject"
	"tsppr/internal/features"
	"tsppr/internal/sampling"
)

// TestChaosEndToEnd drives the offline pipeline through its failure
// modes: a dirty event log is ingested leniently, with an exact quarantine
// report, and refused in strict mode; a training run is killed after its
// first durable checkpoint and warm-started from it into a valid model.
func TestChaosEndToEnd(t *testing.T) {
	faultinject.Reset()
	defer faultinject.Reset()
	const (
		window    = 30
		omega     = 5
		trainFrac = 0.7
	)
	dir := t.TempDir()

	// --- Ingestion: a corrupted log loads leniently with an exact
	// quarantine report; strict mode refuses it.
	cfg := datagen.GowallaLike(16, 99)
	cfg.MinLen, cfg.MaxLen = 120, 260
	cfg.WindowCap = window
	generated, err := datagen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cleanPath := filepath.Join(dir, "events.tsv")
	if err := generated.SaveFile(cleanPath); err != nil {
		t.Fatal(err)
	}
	clean, err := os.ReadFile(cleanPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(clean), "\n")
	garbage := []string{"not a line\n", "12junk\t7\n", "-3\t9\n", "\xff\xfe\tbinary\n"}
	var dirty strings.Builder
	for i, ln := range lines {
		if i > 0 && i%25 == 0 {
			dirty.WriteString(garbage[(i/25)%len(garbage)])
		}
		dirty.WriteString(ln)
	}
	dirtyPath := filepath.Join(dir, "dirty.tsv")
	if err := os.WriteFile(dirtyPath, []byte(dirty.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := dataset.LoadFile(dirtyPath); err == nil {
		t.Fatal("strict mode accepted the corrupted log")
	}
	ds, rep, err := dataset.LoadFileWith(dirtyPath, dataset.ReadOptions{Lenient: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.BadLines == 0 || rep.Quarantined != rep.BadLines {
		t.Fatalf("quarantine report inconsistent: %+v", rep)
	}
	if got, want := totalEvents(ds), totalEvents(generated); got != want {
		t.Fatalf("lenient load lost events: %d vs %d", got, want)
	}
	if _, err := os.Stat(dataset.QuarantinePath(dirtyPath)); err != nil {
		t.Fatalf("no quarantine sidecar: %v", err)
	}

	// --- Pipeline up to the sampled training set.
	ds = ds.FilterMinTrain(trainFrac, window)
	ds, numItems := ds.Compact()
	train, _ := ds.Split(trainFrac)
	b := features.NewBuilder(numItems, window, omega)
	for _, s := range train {
		b.Add(s)
	}
	ex := b.Build(features.AllFeatures, features.Hyperbolic)
	set, err := sampling.Build(train, ex, sampling.Config{WindowCap: window, Omega: omega, S: 6, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}

	// --- Training killed after its first durable checkpoint, resumed via
	// warm start, producing a valid final model.
	ckptPath := filepath.Join(dir, "model.ckpt")
	tcfg := core.Config{K: 8, MaxSteps: 40_000, Seed: 7}
	tcfg.OnCheckpoint = func(cp core.Checkpoint) {
		if cp.Diverged {
			return
		}
		if err := cp.Model.SaveFile(ckptPath); err != nil {
			t.Errorf("checkpoint save: %v", err)
		}
		_ = faultinject.Do("train.checkpoint")
	}
	faultinject.Arm("train.checkpoint", faultinject.Plan{Mode: faultinject.Panic, After: 1})
	killed := func() (killed bool) {
		defer func() { killed = recover() != nil }()
		_, _, _ = core.Train(set, len(train), numItems, ex, tcfg)
		return false
	}()
	faultinject.Reset()
	if !killed {
		t.Fatal("injected kill did not fire")
	}
	warm, err := core.LoadFile(ckptPath)
	if err != nil {
		t.Fatalf("durable checkpoint unreadable after kill: %v", err)
	}
	if err := warm.Validate(); err != nil {
		t.Fatal(err)
	}
	tcfg.Warm = warm
	model, stats, err := core.Train(set, len(train), numItems, ex, tcfg)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Interrupted {
		t.Fatal("resumed training reported interrupted")
	}
	if err := model.Validate(); err != nil {
		t.Fatal(err)
	}
}

func totalEvents(ds *dataset.Dataset) int {
	n := 0
	for _, s := range ds.Seqs {
		n += len(s)
	}
	return n
}
