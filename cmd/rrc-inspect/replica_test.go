package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tsppr/internal/replica"
	"tsppr/internal/wal"
)

// writeWAL appends the given payloads into dir as a fresh log.
func writeWAL(t *testing.T, dir string, payloads ...string) {
	t.Helper()
	l, err := wal.Open(dir, wal.Options{Sync: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for _, p := range payloads {
		if _, err := l.Append([]byte(p)); err != nil {
			t.Fatal(err)
		}
	}
}

func TestEpochReportsHistory(t *testing.T) {
	root := t.TempDir()
	var out bytes.Buffer
	if err := runEpoch(root, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "epoch=0") || !strings.Contains(out.String(), "original timeline") {
		t.Fatalf("virgin root report:\n%s", out.String())
	}

	var m replica.Meta
	m, err := m.Promote(1, []uint64{31, 12})
	if err != nil {
		t.Fatal(err)
	}
	m, err = m.Promote(4, []uint64{40, 19})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Store(root); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := runEpoch(root, &out); err != nil {
		t.Fatal(err)
	}
	rep := out.String()
	for _, want := range []string{"epoch=4", "promotions=2", "epoch 1", "[31 12]", "epoch 4", "[40 19]"} {
		if !strings.Contains(rep, want) {
			t.Fatalf("report missing %q:\n%s", want, rep)
		}
	}
}

func TestDivergeConsistentAndLagged(t *testing.T) {
	a, b := t.TempDir(), t.TempDir()
	writeWAL(t, filepath.Join(a, "shard-000"), "e1", "e2", "e3", "e4")
	writeWAL(t, filepath.Join(b, "shard-000"), "e1", "e2") // pure lag: strict prefix, no fork
	var out bytes.Buffer
	if err := runDiverge(a, b, &out); err != nil {
		t.Fatalf("lagged pair reported divergent: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "consistent over 2 shared record(s)") {
		t.Fatalf("report:\n%s", out.String())
	}
}

func TestDivergeDetectsFork(t *testing.T) {
	a, b := t.TempDir(), t.TempDir()
	writeWAL(t, filepath.Join(a, "shard-000"), "e1", "e2", "doomed3", "doomed4")
	writeWAL(t, filepath.Join(b, "shard-000"), "e1", "e2", "new3")
	var out bytes.Buffer
	err := runDiverge(a, b, &out)
	if err == nil {
		t.Fatalf("forked pair reported consistent:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "DIVERGED at lsn 3") || !strings.Contains(out.String(), "2 shared record(s)") {
		t.Fatalf("report:\n%s", out.String())
	}
}

func TestDivergeShardedRoots(t *testing.T) {
	a, b := t.TempDir(), t.TempDir()
	for i := 0; i < 2; i++ {
		sa := filepath.Join(a, fmt.Sprintf("shard-%03d", i))
		sb := filepath.Join(b, fmt.Sprintf("shard-%03d", i))
		if err := os.MkdirAll(sa, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(sb, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	writeWAL(t, filepath.Join(a, "shard-000"), "e1", "e2")
	writeWAL(t, filepath.Join(b, "shard-000"), "e1", "e2")
	writeWAL(t, filepath.Join(a, "shard-001"), "e1", "fork")
	writeWAL(t, filepath.Join(b, "shard-001"), "e1", "other")
	var out bytes.Buffer
	err := runDiverge(a, b, &out)
	if err == nil || !strings.Contains(err.Error(), "1 shard(s)") {
		t.Fatalf("err=%v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "shard-000: consistent") || !strings.Contains(out.String(), "shard-001: DIVERGED at lsn 2") {
		t.Fatalf("report:\n%s", out.String())
	}
}
