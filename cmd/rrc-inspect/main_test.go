package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tsppr/internal/cli"
	"tsppr/internal/wal"
)

func writeFile(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestValidateCleanFile(t *testing.T) {
	path := writeFile(t, "clean.tsv", "0\t0\n0\t1\n1\t0\n1\t1\n")
	var out bytes.Buffer
	if err := runValidate([]string{path}, &out); err != nil {
		t.Fatalf("clean file failed validation: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "ok") || !strings.Contains(out.String(), "events=4") {
		t.Fatalf("unexpected report:\n%s", out.String())
	}
}

func TestValidateDirtyFile(t *testing.T) {
	// Bad line, a user id gap (user 5), and an out-of-order block for user 0.
	path := writeFile(t, "dirty.tsv", "0\t0\nnot-a-line\n5\t1\n0\t2\n")
	var out bytes.Buffer
	err := runValidate([]string{path}, &out)
	if err == nil {
		t.Fatalf("dirty file passed validation:\n%s", out.String())
	}
	if cli.ExitCode(err) == 0 {
		t.Fatal("validation failure must exit nonzero")
	}
	s := out.String()
	if !strings.Contains(s, "badLines=1") || !strings.Contains(s, "violation:") {
		t.Fatalf("report missing diagnostics:\n%s", s)
	}
}

func TestValidateUsage(t *testing.T) {
	if err := runValidate(nil, &bytes.Buffer{}); cli.ExitCode(err) != 2 {
		t.Fatalf("no-args exit code = %d, want 2", cli.ExitCode(err))
	}
}

// walDir builds a one-shard events root holding a three-record event log
// the way rrc-server would, then optionally vandalizes it.
func walDir(t *testing.T, vandalize func(t *testing.T, seg string)) string {
	t.Helper()
	root := t.TempDir()
	dir := filepath.Join(root, "shard-000")
	l, err := wal.Open(dir, wal.Options{Sync: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := l.Append([]byte{byte(i), 1, 2, 3, 4, 5, 6, 7}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if vandalize != nil {
		segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
		if err != nil || len(segs) != 1 {
			t.Fatalf("segments = %v (%v)", segs, err)
		}
		vandalize(t, segs[0])
	}
	return root
}

func TestWALVerifyCleanLog(t *testing.T) {
	dir := walDir(t, nil)
	var out bytes.Buffer
	if err := runWALVerify(dir, &out); err != nil {
		t.Fatalf("clean log failed verification: %v\n%s", err, out.String())
	}
	s := out.String()
	if !strings.Contains(s, "ok") || !strings.Contains(s, "records=3") || !strings.Contains(s, "crcFailures=0") {
		t.Fatalf("unexpected report:\n%s", s)
	}
}

func TestWALVerifyCorruptAndTornLog(t *testing.T) {
	dir := walDir(t, func(t *testing.T, seg string) {
		raw, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		raw[16+8+2] ^= 1              // flip a payload bit of record 1 (lsn 2)
		raw = append(raw, 0xAA, 0xBB) // and leave a torn tail
		if err := os.WriteFile(seg, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	})
	var out bytes.Buffer
	err := runWALVerify(dir, &out)
	if err == nil {
		t.Fatalf("corrupt log passed verification:\n%s", out.String())
	}
	if cli.ExitCode(err) == 0 {
		t.Fatal("verification failure must exit nonzero")
	}
	s := out.String()
	if !strings.Contains(s, "violation: record 1 (lsn 2) failed CRC32-C") {
		t.Fatalf("missing CRC violation:\n%s", s)
	}
	if !strings.Contains(s, "torn tail of 2 bytes") {
		t.Fatalf("missing torn-tail violation:\n%s", s)
	}
	// Read-only: a second pass sees the identical damage.
	var again bytes.Buffer
	if err := runWALVerify(dir, &again); err == nil {
		t.Fatal("verification mutated the log")
	}
}

// shardedWALRoot builds an events root the way rrc-server -shards=3
// would: shard-NNN subdirectories each holding their own log, plus the
// shard-count marker.
func shardedWALRoot(t *testing.T, vandalizeShard int, vandalize func(t *testing.T, seg string)) string {
	t.Helper()
	root := t.TempDir()
	if err := os.WriteFile(filepath.Join(root, "shards"), []byte("3\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		dir := filepath.Join(root, fmt.Sprintf("shard-%03d", i))
		l, err := wal.Open(dir, wal.Options{Sync: wal.SyncAlways})
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < 2+i; r++ { // distinct record counts per shard
			if _, err := l.Append([]byte{byte(i), byte(r), 2, 3, 4, 5, 6, 7}); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		if i == vandalizeShard && vandalize != nil {
			segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
			if err != nil || len(segs) != 1 {
				t.Fatalf("segments = %v (%v)", segs, err)
			}
			vandalize(t, segs[0])
		}
	}
	return root
}

func TestWALVerifyShardedRootClean(t *testing.T) {
	root := shardedWALRoot(t, -1, nil)
	var out bytes.Buffer
	if err := runWALVerify(root, &out); err != nil {
		t.Fatalf("clean sharded root failed verification: %v\n%s", err, out.String())
	}
	s := out.String()
	if !strings.Contains(s, "sharded root: shards=3 unhealthy=0") {
		t.Fatalf("missing aggregate summary:\n%s", s)
	}
	// Per-shard summaries carry the shard prefix and that shard's LSN
	// horizon (2, 3, and 4 records → nextLSN 3, 4, 5).
	for i, next := range []int{3, 4, 5} {
		want := fmt.Sprintf("shard-%03d/total: segments=1 records=%d good=%d crcFailures=0 tornSegments=0 nextLSN=%d",
			i, next-1, next-1, next)
		if !strings.Contains(s, want) {
			t.Errorf("missing per-shard summary %q:\n%s", want, s)
		}
	}
}

func TestWALVerifyShardedRootOneBadShard(t *testing.T) {
	root := shardedWALRoot(t, 1, func(t *testing.T, seg string) {
		raw, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		raw[16+8+2] ^= 1 // flip a payload bit of shard 1's record 1
		if err := os.WriteFile(seg, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	})
	var out bytes.Buffer
	err := runWALVerify(root, &out)
	if err == nil {
		t.Fatalf("corrupt shard passed verification:\n%s", out.String())
	}
	if cli.ExitCode(err) == 0 {
		t.Fatal("verification failure must exit nonzero")
	}
	if !strings.Contains(err.Error(), "1 of 3 shard(s) unhealthy") {
		t.Fatalf("unexpected error: %v", err)
	}
	s := out.String()
	if !strings.Contains(s, "shard-001: UNHEALTHY") || !strings.Contains(s, "sharded root: shards=3 unhealthy=1") {
		t.Fatalf("missing unhealthy-shard diagnostics:\n%s", s)
	}
	// The other shards still report healthy — failure is per-shard.
	if !strings.Contains(s, "shard-000/total") || !strings.Contains(s, "shard-002/total") {
		t.Fatalf("healthy shards not reported:\n%s", s)
	}
}

func TestWALVerifyEmptyDir(t *testing.T) {
	err := runWALVerify(t.TempDir(), &bytes.Buffer{})
	if err == nil {
		t.Fatal("empty dir passed verification")
	}
	if !strings.Contains(err.Error(), "not an events root") {
		t.Fatalf("unexpected error: %v", err)
	}
}
