package serve

// Server-level partition ownership: the keyed online endpoints refuse
// foreign users with the 421 hint rrc-router folds, /readyz advertises
// the node's identity, and an events dir cannot be reopened as a
// different partition.

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"tsppr/internal/replica"
	"tsppr/internal/shard"
)

// userInPartition finds a model-valid user owned by partition p of count.
func userInPartition(t *testing.T, srv *Server, p, count int) int {
	t.Helper()
	for u := 0; u < srv.currentModel().NumUsers(); u++ {
		if shard.UserShard(u, count) == p {
			return u
		}
	}
	t.Fatalf("no model user in partition %d/%d", p, count)
	return -1
}

func TestServerPartitionGate(t *testing.T) {
	srv, _ := onlineServer(t, t.TempDir(), func(o *Options) {
		o.Partition = shard.PartitionID{Index: 1, Count: 2}
	})
	h := srv
	mine := userInPartition(t, srv, 1, 2)
	foreign := userInPartition(t, srv, 0, 2)

	if rr := postJSON(t, h, "/consume", consumeRequest{User: mine, Item: 1}); rr.Code != http.StatusOK {
		t.Fatalf("owned consume: status %d: %s", rr.Code, rr.Body.String())
	}

	for _, tc := range []struct {
		path string
		body any
	}{
		{"/consume", consumeRequest{User: foreign, Item: 1}},
		{"/recommend/user", recommendUserRequest{User: foreign, N: 3}},
	} {
		rr := postJSON(t, h, tc.path, tc.body)
		if rr.Code != http.StatusMisdirectedRequest {
			t.Fatalf("%s for a foreign user: status %d, want 421: %s", tc.path, rr.Code, rr.Body.String())
		}
		var hint struct {
			Error      string `json:"error"`
			Partition  *int   `json:"partition"`
			Partitions int    `json:"partitions"`
		}
		if err := json.Unmarshal(rr.Body.Bytes(), &hint); err != nil {
			t.Fatal(err)
		}
		if hint.Partition == nil || *hint.Partition != 0 || hint.Partitions != 2 {
			t.Fatalf("%s 421 hint = %s, want owning partition 0/2", tc.path, rr.Body.String())
		}
		if got := rr.Header().Get(replica.PartitionHeader); got != "1/2" {
			t.Fatalf("%s 421 %s header = %q", tc.path, replica.PartitionHeader, got)
		}
	}

	// Nothing from the refused write reached the store.
	if rr := postJSON(t, h, "/recommend/user", recommendUserRequest{User: mine, N: 3}); rr.Code != http.StatusOK {
		t.Fatalf("owned recommend/user: status %d: %s", rr.Code, rr.Body.String())
	}

	// /readyz advertises the identity for the router's probe.
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	var ready readyResponse
	if err := json.Unmarshal(rr.Body.Bytes(), &ready); err != nil {
		t.Fatal(err)
	}
	if ready.Partition == nil || ready.Partition.Index != 1 || ready.Partition.Count != 2 {
		t.Fatalf("/readyz partition block = %+v", ready.Partition)
	}
}

func TestServerPartitionIdentityFixedPerEventsDir(t *testing.T) {
	dir := t.TempDir()
	srv, _ := onlineServer(t, dir, func(o *Options) {
		o.Partition = shard.PartitionID{Index: 0, Count: 2}
	})
	if _, err := srv.Close(0); err != nil {
		t.Fatal(err)
	}

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
	opts.Partition = shard.PartitionID{Index: 0, Count: 2}
	srv2, err := New(srv.currentModel(), opts)
	if err != nil {
		t.Fatalf("matching reopen refused: %v", err)
	}
	if _, err := srv2.Close(0); err != nil {
		t.Fatal(err)
	}
}
