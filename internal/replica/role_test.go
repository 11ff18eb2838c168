package replica

import (
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"

	"tsppr/internal/shard"
	"tsppr/internal/wal"
)

// The steps one node sees, as the property test draws them.
const (
	stepProbe   = iota // a /replica/* request stamped with some epoch
	stepConsume        // a /consume, unstamped or stamped
	stepAdopt          // the tailers adopt a primary's newer meta
	stepPromote        // POST /admin/promote
	stepRejoin         // restart as a follower of the current primary
	numSteps
)

// openRole opens a node over pool in the given role. A follower's
// tailers are not started: the test plays their adoptions itself.
func openRole(t *testing.T, pool *shard.Pool, following bool) *Node {
	t.Helper()
	n, err := Open(pool, Config{})
	if err != nil {
		t.Fatal(err)
	}
	n.following = following
	return n
}

// TestReplicaRoleRuleProperty drives one node with seeded random
// sequences of epoch-stamped requests, /consume calls, follower
// adoptions, promotions and rejoins, and checks it after every step
// against the role rule stated directly: the node is fenced iff it has
// seen an epoch above its own; a write is acked only by an unfenced
// primary and only when unstamped or stamped with the node's epoch; a
// promotion succeeds only on an unfenced follower, to an epoch above
// every epoch the node has seen; and the epoch never decreases, on disk
// or in memory.
func TestReplicaRoleRuleProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 100; trial++ {
		pool, err := shard.Open(t.TempDir(), shard.Config{Shards: 1, WindowCap: 8, Fsync: wal.SyncNever})
		if err != nil {
			t.Fatal(err)
		}
		following := rng.Intn(2) == 0
		n := openRole(t, pool, following)
		var epoch, seen uint64 // the model
		var last uint64        // the node's epoch after the previous step
		var history []string
		for step := 0; step < 30; step++ {
			// Stamps range a little past what the node knows, so some
			// requests come from newer epochs and some from older ones.
			stamp := uint64(rng.Intn(int(seen) + 3))
			switch rng.Intn(numSteps) {
			case stepProbe:
				history = append(history, fmt.Sprintf("probe@%d", stamp))
				req := httptest.NewRequest(http.MethodGet, "/replica/epoch", nil)
				req.Header.Set(EpochHeader, strconv.FormatUint(stamp, 10))
				rr := httptest.NewRecorder()
				n.handleEpoch(rr, req)
				seen = max(seen, stamp)
				if want := stamp == epoch; (rr.Code == http.StatusOK) != want {
					t.Fatalf("trial %d %v: probe answered %d", trial, history, rr.Code)
				}
			case stepConsume:
				raw := ""
				if rng.Intn(2) == 0 {
					raw = strconv.FormatUint(stamp, 10)
					seen = max(seen, stamp)
				} else {
					stamp = epoch
				}
				history = append(history, fmt.Sprintf("consume@%q", raw))
				_, err := n.AdmitWrite(raw)
				want := stamp == epoch && !following && seen <= epoch
				if (err == nil) != want {
					t.Fatalf("trial %d %v: write admitted %v, want %v (err %v)", trial, history, err == nil, want, err)
				}
			case stepAdopt:
				if !following {
					continue // only a follower's tailers adopt
				}
				to := epoch + 1 + uint64(rng.Intn(3))
				history = append(history, fmt.Sprintf("adopt@%d", to))
				primary, err := n.Meta().Promote(to, []uint64{1})
				if err != nil {
					t.Fatal(err)
				}
				if _, err := n.adopt(primary); err != nil {
					t.Fatalf("trial %d %v: adopt: %v", trial, history, err)
				}
				epoch, seen = to, max(seen, to)
			case stepPromote:
				history = append(history, "promote")
				m, err := n.Promote()
				if want := following && seen <= epoch; (err == nil) != want {
					t.Fatalf("trial %d %v: promote succeeded %v, want %v (err %v)", trial, history, err == nil, want, err)
				}
				if err == nil {
					if m.Epoch <= seen {
						t.Fatalf("trial %d %v: promoted to epoch %d, already saw %d", trial, history, m.Epoch, seen)
					}
					epoch, seen, following = m.Epoch, m.Epoch, false
				}
			case stepRejoin:
				history = append(history, "rejoin")
				n = openRole(t, pool, true)
				seen, following = epoch, true
			}

			m, role, fenced := n.state()
			if m.Epoch < last {
				t.Fatalf("trial %d %v: epoch fell from %d to %d", trial, history, last, m.Epoch)
			}
			last = m.Epoch
			if m.Epoch != epoch || n.seen != seen || role != following {
				t.Fatalf("trial %d %v: node at epoch %d seen %d following %v, model %d %d %v",
					trial, history, m.Epoch, n.seen, role, epoch, seen, following)
			}
			if fenced != (seen > epoch) || n.Status().Fenced != fenced {
				t.Fatalf("trial %d %v: fenced %v with seen %d, epoch %d", trial, history, fenced, seen, epoch)
			}
			if onDisk, err := LoadMeta(pool.Root()); err != nil || onDisk.Epoch != epoch {
				t.Fatalf("trial %d %v: persisted epoch %d (%v), want %d", trial, history, onDisk.Epoch, err, epoch)
			}
		}
		pool.Close()
	}
}
