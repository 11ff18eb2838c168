package shard

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestUserShardPartitionDistribution pins the hash's balance at the
// partition counts the router splits fleets over. The counts are golden
// on purpose: partition routing (rrc-router) and in-process shard
// routing (the pool) derive ownership from the same function, and these
// exact values prove the two layers agree for every one of 1M dense
// ids. The skew bound is the operational contract: no partition may
// hold more than 1.05× the mean load.
func TestUserShardPartitionDistribution(t *testing.T) {
	const ids = 1_000_000
	golden := map[int][]int{
		2: {499467, 500533},
		3: {333551, 333048, 333401},
		5: {200481, 199720, 200231, 200038, 199530},
		8: {124715, 124976, 125538, 124553, 124803, 125163, 124411, 125841},
	}
	for _, p := range []int{2, 3, 5, 8} {
		counts := make([]int, p)
		for u := 0; u < ids; u++ {
			counts[UserShard(u, p)]++
		}
		mean := float64(ids) / float64(p)
		for i, c := range counts {
			if float64(c) > 1.05*mean {
				t.Errorf("partitions=%d: partition %d holds %d ids, over 1.05× the mean %.0f", p, i, c, mean)
			}
			if counts[i] != golden[p][i] {
				t.Errorf("partitions=%d: partition %d holds %d ids, golden %d (HASH CHANGED: breaks partitioned fleets)",
					p, i, c, golden[p][i])
			}
		}
	}
}

func TestPartitionIDParseAndString(t *testing.T) {
	cases := []struct {
		in   string
		want PartitionID
	}{
		{"0/1", PartitionID{0, 1}},
		{"2/3", PartitionID{2, 3}},
	}
	for _, c := range cases {
		got, err := ParsePartitionID(c.in)
		if err != nil {
			t.Fatalf("ParsePartitionID(%q): %v", c.in, err)
		}
		if got != c.want {
			t.Fatalf("ParsePartitionID(%q) = %+v, want %+v", c.in, got, c.want)
		}
	}
	for _, bad := range []string{"", "3", "3/2", "-1/2", "a/b", "1/2@-1",
		"1/3@2garbage", "1/3xyz", "1/3@", " 1/3", "+1/3", "01/3", "1/3@2@4",
		"1/4@7", "1/3@0"} {
		if _, err := ParsePartitionID(bad); err == nil {
			t.Errorf("ParsePartitionID(%q): want error", bad)
		}
	}
	p := PartitionID{Index: 1, Count: 3}
	rt, err := ParsePartitionID(p.String())
	if err != nil || rt != p {
		t.Fatalf("round trip %s → %+v (%v)", p, rt, err)
	}
}

func TestPartitionOwns(t *testing.T) {
	p := PartitionID{Index: 1, Count: 3}
	for u := 0; u < 1000; u++ {
		want := UserShard(u, 3) == 1
		if got := p.Owns(u); got != want {
			t.Fatalf("Owns(%d) = %v, want %v", u, got, want)
		}
	}
	// 0/1 is an ordinary identity, and it owns everything.
	whole := PartitionID{Count: 1}
	for _, u := range []int{0, 1, 17, 1 << 20} {
		if !whole.Owns(u) {
			t.Fatalf("partition 0/1 must own user %d", u)
		}
	}
}

// TestEnsurePartition covers the marker reconciliation table: every
// root names its partition (0/1 when started without one), explicit
// identities persist and re-match, and everything else fails loudly.
func TestEnsurePartition(t *testing.T) {
	// Unconfigured over a fresh root: 0/1, persisted like any identity,
	// and as fixed as any.
	whole := t.TempDir()
	got, err := EnsurePartition(whole, PartitionID{})
	if want := (PartitionID{Count: 1}); err != nil || got != want {
		t.Fatalf("unconfigured fresh root: %+v, %v", got, err)
	}
	if have, ok, err := LoadPartition(whole); err != nil || !ok || have != got {
		t.Fatalf("unconfigured open persisted %+v (ok=%v, %v), want %+v", have, ok, err, got)
	}
	_, err = EnsurePartition(whole, PartitionID{Index: 1, Count: 3})
	if err == nil || !strings.Contains(err.Error(), "rerun with -partition 0/1") {
		t.Fatalf("0/1 root started as 1/3: %v", err)
	}

	// Explicit first open persists the identity.
	root := t.TempDir()
	want := PartitionID{Index: 1, Count: 3}
	if got, err = EnsurePartition(root, want); err != nil || got != want {
		t.Fatalf("explicit first open: %+v, %v", got, err)
	}
	if _, ok, _ := LoadPartition(root); !ok {
		t.Fatal("explicit open must persist the marker")
	}

	// Matching reopen is fine; unconfigured reopen adopts the marker.
	if got, err = EnsurePartition(root, want); err != nil || got != want {
		t.Fatalf("matching reopen: %+v, %v", got, err)
	}
	if got, err = EnsurePartition(root, PartitionID{}); err != nil || got != want {
		t.Fatalf("unconfigured reopen over marker: %+v, %v", got, err)
	}

	// A different identity is a loud error.
	_, err = EnsurePartition(root, PartitionID{Index: 2, Count: 3})
	if err == nil || !strings.Contains(err.Error(), "fixed per events dir") {
		t.Fatalf("cross-partition reopen must fail loudly, got %v", err)
	}
	_, err = EnsurePartition(root, PartitionID{Index: 1, Count: 4})
	if err == nil {
		t.Fatal("changed partition count must fail")
	}
}

// TestPartitionSliceFixedPerRoot: an events root's slice of the key
// space is fixed, like its shard count. A root created as 0/2 holds
// windows for 0/2's users only; reopened as 1/3 it would own users it
// holds no window for and answer them as if they had never consumed. So
// it is refused under every spelling -partition takes, and the refusal
// names no way round it.
func TestPartitionSliceFixedPerRoot(t *testing.T) {
	root := t.TempDir()
	created := PartitionID{Index: 0, Count: 2}
	if _, err := EnsurePartition(root, created); err != nil {
		t.Fatal(err)
	}
	for _, flag := range []string{"1/3@1", "1/3"} {
		want, err := ParsePartitionID(flag)
		if err != nil {
			continue // refused at the flag
		}
		_, err = EnsurePartition(root, want)
		if err == nil || strings.Contains(err.Error(), "generation") {
			t.Fatalf("0/2 root reopened as %s: %v, want a refusal with no override", flag, err)
		}
	}
	if have, _, err := LoadPartition(root); err != nil || have != created {
		t.Fatalf("marker now %+v (%v), want %+v", have, err, created)
	}
}

// TestParentWrittenPartitionMarker: testdata/parent-8488675/partition is
// a marker written by a build that recorded a resize generation (1/3@2).
// It loads as its index and count, and the root reopens as 1/3.
func TestParentWrittenPartitionMarker(t *testing.T) {
	const parent = "testdata/parent-8488675"
	want := PartitionID{Index: 1, Count: 3}
	if have, ok, err := LoadPartition(parent); err != nil || !ok || have != want {
		t.Fatalf("parent marker loaded as %+v (ok=%v, %v), want %+v", have, ok, err, want)
	}
	root := t.TempDir()
	b, err := os.ReadFile(filepath.Join(parent, PartitionMarker))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(root, PartitionMarker), b, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, reopen := range []PartitionID{want, {}} {
		if got, err := EnsurePartition(root, reopen); err != nil || got != want {
			t.Fatalf("parent root reopened as %+v: %+v, %v", reopen, got, err)
		}
	}
}

// TestPoolPartitionIdentity wires the marker through Pool.Open: the
// identity rides the same open path as the shard-count marker, and
// ownership checks answer from it.
func TestPoolPartitionIdentity(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig(2)
	cfg.Partition = PartitionID{Index: 0, Count: 2}
	p, err := Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Partition(); got != cfg.Partition {
		t.Fatalf("Partition() = %+v, want %+v", got, cfg.Partition)
	}
	for u := 0; u < 100; u++ {
		if p.Partition().Owns(u) != (UserShard(u, 2) == 0) {
			t.Fatalf("Owns(%d) disagrees with UserShard", u)
		}
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopening as a different partition is refused loudly.
	bad := testConfig(2)
	bad.Partition = PartitionID{Index: 1, Count: 2}
	if _, err := Open(dir, bad); err == nil {
		t.Fatal("reopen under a different partition identity must fail")
	}

	// Reopening without -partition adopts the persisted identity.
	p2, err := Open(dir, testConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	if got := p2.Partition(); got != cfg.Partition {
		t.Fatalf("adopted identity %+v, want %+v", got, cfg.Partition)
	}

	// No Open leaves a root unnamed: without -partition it says 0/1.
	fresh := t.TempDir()
	p3, err := Open(fresh, testConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	p3.Close()
	if have, ok, err := LoadPartition(fresh); err != nil || !ok || have != (PartitionID{Count: 1}) {
		t.Fatalf("unconfigured Open left marker %+v (ok=%v, %v), want 0/1", have, ok, err)
	}
}
