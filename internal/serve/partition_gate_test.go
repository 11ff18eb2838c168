package serve

// Server-level partition ownership: the keyed online endpoints refuse
// foreign users with the 421 hint rrc-router folds, /readyz advertises
// the node's identity, and an events dir cannot be reopened as a
// different partition.

import (
	"net/http"
	"testing"

	"tsppr/internal/core"
	"tsppr/internal/replica"
	"tsppr/internal/shard"
)

// userInPartition finds a model-valid user owned by partition p of count.
func userInPartition(t *testing.T, m *core.Model, p, count int) int {
	t.Helper()
	for u := 0; u < m.NumUsers(); u++ {
		if shard.UserShard(u, count) == p {
			return u
		}
	}
	t.Fatalf("no model user in partition %d/%d", p, count)
	return -1
}

func TestServerPartitionGate(t *testing.T) {
	m, _ := trained(t, 8)
	srv := newNode(t, m, "", partition(1, 2))
	mine := userInPartition(t, m, 1, 2)
	foreign := userInPartition(t, m, 0, 2)
	mustConsume(t, srv, event{user: mine, item: 1})

	for _, tc := range []struct {
		path string
		body any
	}{
		{"/consume", consumeRequest{User: foreign, Item: 1}},
		{"/recommend/user", recommendUserRequest{User: foreign, N: 3}},
	} {
		rr := expect(t, http.StatusMisdirectedRequest, srv, "POST "+tc.path, tc.body)
		hint := decodeAs[struct {
			Error      string `json:"error"`
			Partition  *int   `json:"partition"`
			Partitions int    `json:"partitions"`
		}](t, rr.Body.Bytes())
		if hint.Partition == nil || *hint.Partition != 0 || hint.Partitions != 2 {
			t.Fatalf("%s 421 hint = %s, want owning partition 0/2", tc.path, rr.Body.String())
		}
		if got := rr.Header().Get(replica.PartitionHeader); got != "1/2" {
			t.Fatalf("%s 421 %s header = %q", tc.path, replica.PartitionHeader, got)
		}
	}

	// Nothing from the refused write reached the store.
	expect(t, http.StatusOK, srv, "POST /recommend/user", recommendUserRequest{User: mine, N: 3})

	// /readyz advertises the identity for the router's probe.
	if ready := readyOf(t, srv); ready.Partition == nil || ready.Partition.Index != 1 || ready.Partition.Count != 2 {
		t.Fatalf("/readyz partition block = %+v", ready.Partition)
	}
}

func TestServerPartitionIdentityFixedPerEventsDir(t *testing.T) {
	m, _ := trained(t, 8)
	srv := newNode(t, m, "", partition(0, 2))
	srv.stop()

	// Reopening the same root as a different partition, same count or
	// not, must fail loudly: the root holds windows for 0/2's users only,
	// and serving another slice would answer its users as strangers.
	opts := srv.opts
	for _, other := range []shard.PartitionID{{Index: 1, Count: 2}, {Index: 1, Count: 3}} {
		opts.Partition = other
		if _, err := New(srv.currentModel(), opts); err == nil {
			t.Fatalf("events dir of 0/2 reopened as %s", other)
		}
	}

	// The identity it was created with reopens.
	srv.restart()
	srv.stop()
}
