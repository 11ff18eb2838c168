// Partition identity: which slice of the user-key space an events root
// owns when several replicated pairs split the fleet. The identity —
// partition index, partition count, and a resize generation — is
// persisted next to the `shards` marker, because it is the same kind of
// on-disk contract: a node serving keys routed by UserShard(user, Count)
// must refuse keys it does not own, and a root reopened under a
// different identity must fail loudly, never silently misroute. The
// generation is the operator's explicit acknowledgement of a resize: a
// re-identity (new index or count after a rebalance) is accepted only
// under a strictly higher generation.
package shard

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"tsppr/internal/atomicio"
)

// PartitionMarker is the partition-identity marker's file name, living
// in the events root beside the `shards` and `epoch` markers.
const PartitionMarker = "partition"

// PartitionID identifies the slice of the user-key space an events root
// owns: this node serves exactly the users with
// UserShard(user, Count) == Index.
type PartitionID struct {
	// Index is the partition this root owns, in [0, Count).
	Index int `json:"partition"`
	// Count is the fleet-wide partition count the keys are split over.
	Count int `json:"partitions"`
	// Generation counts accepted re-identities (resizes). A marker is
	// only ever overwritten by a strictly higher generation.
	Generation int `json:"generation"`
}

// DefaultPartition is the degenerate single-partition identity every
// pre-partitioning deployment implicitly has.
func DefaultPartition() PartitionID { return PartitionID{Index: 0, Count: 1} }

// Validate checks the identity's internal consistency.
func (p PartitionID) Validate() error {
	if p.Count < 1 {
		return fmt.Errorf("shard: partition count %d < 1", p.Count)
	}
	if p.Index < 0 || p.Index >= p.Count {
		return fmt.Errorf("shard: partition index %d out of [0,%d)", p.Index, p.Count)
	}
	if p.Generation < 0 {
		return fmt.Errorf("shard: partition generation %d < 0", p.Generation)
	}
	return nil
}

// Owns reports whether this partition owns user's keys.
func (p PartitionID) Owns(user int) bool {
	return p.Count <= 1 || UserShard(user, p.Count) == p.Index
}

// String renders the identity in the i/c@g wire form used by the
// X-RRC-Partition header and the -partition flag.
func (p PartitionID) String() string {
	return fmt.Sprintf("%d/%d@%d", p.Index, p.Count, p.Generation)
}

// ParsePartitionID parses "i/c" or "i/c@g" (the String form) and
// nothing else: no surrounding space, sign, leading zero or trailing
// byte.
func ParsePartitionID(s string) (PartitionID, error) {
	ic, gen, hasGen := strings.Cut(s, "@")
	idx, cnt, _ := strings.Cut(ic, "/")
	var p PartitionID
	var e1, e2, e3 error
	p.Index, e1 = strconv.Atoi(idx)
	p.Count, e2 = strconv.Atoi(cnt)
	want := fmt.Sprintf("%d/%d", p.Index, p.Count)
	if hasGen {
		p.Generation, e3 = strconv.Atoi(gen)
		want = p.String()
	}
	// Atoi takes "+1" and "01"; only the rendered form is accepted.
	if e1 != nil || e2 != nil || e3 != nil || s != want {
		return p, fmt.Errorf("shard: partition %q: want index/count or index/count@generation", s)
	}
	return p, p.Validate()
}

// LoadPartition reads the partition marker from root. ok is false when
// no marker exists — the state of every root created before
// partitioning (implicitly partition 0 of 1).
func LoadPartition(root string) (PartitionID, bool, error) {
	var p PartitionID
	b, err := os.ReadFile(filepath.Join(root, PartitionMarker))
	if err != nil {
		if os.IsNotExist(err) {
			return p, false, nil
		}
		return p, false, fmt.Errorf("shard: read partition marker: %w", err)
	}
	if err := json.Unmarshal(b, &p); err != nil {
		return p, false, fmt.Errorf("shard: partition marker %s: %w", filepath.Join(root, PartitionMarker), err)
	}
	if err := p.Validate(); err != nil {
		return p, false, fmt.Errorf("shard: partition marker %s: %w", filepath.Join(root, PartitionMarker), err)
	}
	return p, true, nil
}

// Store atomically persists the partition marker to root, routed
// through the "shard.partition" fault-injection point.
func (p PartitionID) Store(root string) error {
	if err := p.Validate(); err != nil {
		return err
	}
	path := filepath.Join(root, PartitionMarker)
	err := atomicio.WriteFile(path, "shard.partition", func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(p)
	})
	if err != nil {
		return fmt.Errorf("shard: write partition marker: %w", err)
	}
	return nil
}

// EnsurePartition reconciles a requested identity against the marker in
// root and returns the effective identity:
//
//   - want.Count == 0 (partitioning not configured): an existing marker
//     wins; with no marker the root is partition 0 of 1 and nothing is
//     written — flat deployments stay byte-identical on disk.
//   - want.Count >= 1 (explicit -partition): with no marker, want is
//     persisted and adopted. With a marker, the identities must match;
//     a different index or count is only accepted — and re-persisted —
//     under a strictly higher want.Generation, the operator's explicit
//     resize acknowledgement. Anything else is a loud error: silently
//     serving another partition's keys would misroute them for good.
func EnsurePartition(root string, want PartitionID) (PartitionID, error) {
	have, ok, err := LoadPartition(root)
	if err != nil {
		return PartitionID{}, err
	}
	if want.Count == 0 {
		if ok {
			return have, nil
		}
		return DefaultPartition(), nil
	}
	if err := want.Validate(); err != nil {
		return PartitionID{}, err
	}
	if !ok {
		if err := want.Store(root); err != nil {
			return PartitionID{}, err
		}
		return want, nil
	}
	if have == want {
		return have, nil
	}
	if want.Generation > have.Generation {
		// A resize re-identity: the higher generation is the operator
		// saying "yes, this root's slice of the key space changed".
		if err := want.Store(root); err != nil {
			return PartitionID{}, err
		}
		return want, nil
	}
	return PartitionID{}, fmt.Errorf(
		"shard: %s is partition %s but was started as %s — a node's slice of the key space is fixed per events dir; rerun with -partition %d/%d, or bump the generation (-partition %d/%d@%d) to acknowledge a resize",
		root, have, want, have.Index, have.Count, want.Index, want.Count, have.Generation+1)
}
