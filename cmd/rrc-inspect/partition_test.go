package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tsppr/internal/cli"
	"tsppr/internal/shard"
)

func writeTopology(t *testing.T, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "topology")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestTopologyValidatesPartitionedFile(t *testing.T) {
	var out strings.Builder
	path := writeTopology(t, "partitions 2\npartition 0 http://a:1\npartition 1 http://b:2\n")
	if err := runTopology(path, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "2 partition(s)") {
		t.Fatalf("summary missing the partition count:\n%s", out.String())
	}
}

func TestTopologyRejectsBrokenFiles(t *testing.T) {
	for name, content := range map[string]string{
		"overlapping ownership": "partitions 2\npartition 0 http://a:1\npartition 1 http://a:1\n",
		"missing partition":     "partitions 3\npartition 0 http://a:1\npartition 1 http://b:2\n",
		"duplicate node":        "partitions 1\npartition 0 http://a:1 http://a:1\n",
	} {
		var out strings.Builder
		err := runTopology(writeTopology(t, content), &out)
		if err == nil {
			t.Errorf("%s: accepted", name)
			continue
		}
		if cli.ExitCode(err) == 0 {
			t.Errorf("%s: zero exit code", name)
		}
	}
}

func TestOwnerPrintsPartition(t *testing.T) {
	var out strings.Builder
	if err := runOwner(12345, 4, &out); err != nil {
		t.Fatal(err)
	}
	want := shard.UserShard(12345, 4)
	if got := strings.TrimSpace(out.String()); got != string(rune('0'+want)) {
		t.Fatalf("owner output %q, want %d", got, want)
	}
	if err := runOwner(1, 0, &out); cli.ExitCode(err) != 2 {
		t.Fatalf("missing -partitions: exit %d, want 2", cli.ExitCode(err))
	}
}
