package replica_test

import (
	"encoding/json"
	"net/http"
	"testing"
	"time"

	"tsppr/internal/obs"
	"tsppr/internal/replica"
	"tsppr/internal/shard"
)

// partitionedPool opens a one-shard pool owning partition id: its
// replication endpoints stamp every response with X-RRC-Partition and
// refuse cross-partition replication with 421.
func partitionedPool(t *testing.T, id shard.PartitionID) *shard.Pool {
	t.Helper()
	cfg := poolCfg(1, 0)
	cfg.Partition = id
	pool, err := shard.Open(t.TempDir(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pool.Close() })
	return pool
}

// TestServerPartitionCheck pins the replication-plane ownership
// contract: a primary that knows its partition identity refuses
// cross-partition requests with 421 and an owning-partition hint, while
// matching, unstamped, and generation-skewed requests pass. Silent
// cross-partition replication would copy another partition's keys into
// this pair for good, so the refusal must be loud and machine-readable.
func TestServerPartitionCheck(t *testing.T) {
	own := shard.PartitionID{Index: 0, Count: 2}
	_, ts := newPrimary(t, partitionedPool(t, own))

	get := func(stamp string) *http.Response {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, ts.URL+"/replica/epoch", nil)
		if err != nil {
			t.Fatal(err)
		}
		if stamp != "" {
			req.Header.Set(replica.PartitionHeader, stamp)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}

	// Matching identity and unstamped (pre-partitioning follower) pass.
	for _, stamp := range []string{own.String(), ""} {
		if resp := get(stamp); resp.StatusCode != http.StatusOK {
			t.Fatalf("stamp %q: status %d, want 200", stamp, resp.StatusCode)
		} else if got := resp.Header.Get(replica.PartitionHeader); got != own.String() {
			t.Fatalf("stamp %q: response partition header %q, want %q", stamp, got, own)
		}
	}

	// A different partition is refused with the owning identity in both
	// the header and the body.
	resp := get("1/2")
	if resp.StatusCode != http.StatusMisdirectedRequest {
		t.Fatalf("cross-partition stamp: status %d, want 421", resp.StatusCode)
	}
	var body replica.ErrorBody
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("decode 421 body: %v", err)
	}
	if body.Partition == nil || *body.Partition != own {
		t.Fatalf("421 body partition hint = %+v, want %+v", body.Partition, own)
	}

	// A garbled stamp is a 400, not a silent pass. So is the retired
	// i/c@g form an older follower stamps: standbys upgrade first.
	for _, stamp := range []string{"nonsense", "0/2@0"} {
		if resp := get(stamp); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("stamp %q: status %d, want 400", stamp, resp.StatusCode)
		}
	}

	// The stream endpoint runs the same gate.
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/replica/stream?shard=0&from=0", nil)
	req.Header.Set(replica.PartitionHeader, "1/2")
	sresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	if sresp.StatusCode != http.StatusMisdirectedRequest {
		t.Fatalf("cross-partition stream: status %d, want 421", sresp.StatusCode)
	}
}

// TestFollowerPartitionMismatch points a partition-1 follower at a
// partition-0 primary and checks it never replicates a byte: every poll
// surfaces the MISCONFIGURED error instead of applying the stream.
func TestFollowerPartitionMismatch(t *testing.T) {
	ppool := partitionedPool(t, shard.PartitionID{Index: 0, Count: 2})
	ingest(t, ppool, 4, 32)
	_, ts := newPrimary(t, ppool)

	fpool := partitionedPool(t, shard.PartitionID{Index: 1, Count: 2})
	reg := obs.NewRegistry()
	f := newFollower(t, ts.URL, fpool, reg)

	deadline := time.Now().Add(5 * time.Second)
	for reg.SumCounters("rrc_replica_stream_errors_total") < 3 {
		if time.Now().After(deadline) {
			t.Fatal("follower never surfaced the partition mismatch")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if f.CaughtUp() {
		t.Fatal("misdirected follower must not report caught up")
	}
	if got := fingerprint(t, fpool); got != fingerprint(t, mustEmptyPool(t)) {
		t.Fatal("misdirected follower applied records across partitions")
	}
}

// mustEmptyPool opens a fresh empty pool for fingerprint comparison.
func mustEmptyPool(t *testing.T) *shard.Pool {
	t.Helper()
	p, err := shard.Open(t.TempDir(), poolCfg(1, 0))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	return p
}
