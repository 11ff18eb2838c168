// Partition identity: which slice of the user-key space an events root
// owns when several replicated pairs split the fleet. The identity —
// partition index and partition count — is persisted next to the
// `shards` marker, because it is the same kind of on-disk contract: a
// node serving keys routed by UserShard(user, Count) must refuse keys it
// does not own, and a root holds windows for its own slice only, so it
// is never reopened under another identity. Changing P means fresh dirs
// and a re-ingest, as README's resize procedure says.
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
}

// Validate checks the identity's internal consistency.
func (p PartitionID) Validate() error {
	if p.Count < 1 {
		return fmt.Errorf("shard: partition count %d < 1", p.Count)
	}
	if p.Index < 0 || p.Index >= p.Count {
		return fmt.Errorf("shard: partition index %d out of [0,%d)", p.Index, p.Count)
	}
	return nil
}

// Owns reports whether this partition owns user's keys.
func (p PartitionID) Owns(user int) bool {
	return UserShard(user, p.Count) == p.Index
}

// String renders the identity in the i/c wire form used by the
// X-RRC-Partition header and the -partition flag.
func (p PartitionID) String() string {
	return fmt.Sprintf("%d/%d", p.Index, p.Count)
}

// ParsePartitionID parses "i/c" (the String form) and nothing else: no
// surrounding space, sign, leading zero or trailing byte.
func ParsePartitionID(s string) (PartitionID, error) {
	idx, cnt, _ := strings.Cut(s, "/")
	var p PartitionID
	var e1, e2 error
	p.Index, e1 = strconv.Atoi(idx)
	p.Count, e2 = strconv.Atoi(cnt)
	// Atoi takes "+1" and "01"; only the rendered form is accepted.
	if e1 != nil || e2 != nil || s != p.String() {
		return p, fmt.Errorf("shard: partition %q: want index/count", s)
	}
	return p, p.Validate()
}

// LoadPartition reads the partition marker from root. ok is false when
// root has no marker yet; EnsurePartition writes one on every Open.
// Fields the identity no longer has (a resize "generation") are
// ignored.
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
//   - want.Count == 0 (no -partition): an existing marker wins; with no
//     marker the root is 0/1, the whole key space, and that is persisted
//     like any other identity — every root names its partition.
//   - want.Count >= 1 (explicit -partition): with no marker, want is
//     persisted and adopted. With a marker, the identities must match.
//     Anything else is a loud error: the root holds windows for its own
//     slice only, and serving another would answer users it never saw.
func EnsurePartition(root string, want PartitionID) (PartitionID, error) {
	have, ok, err := LoadPartition(root)
	if err != nil {
		return PartitionID{}, err
	}
	if want.Count == 0 {
		if ok {
			return have, nil
		}
		want.Count = 1
	}
	if err := want.Validate(); err != nil {
		return PartitionID{}, err
	}
	if ok && have == want {
		return have, nil
	}
	if !ok {
		if err := want.Store(root); err != nil {
			return PartitionID{}, err
		}
		return want, nil
	}
	return PartitionID{}, fmt.Errorf(
		"shard: %s is partition %s but was started as %s — a node's slice of the key space is fixed per events dir; rerun with -partition %s, or re-ingest into a fresh dir to change it",
		root, have, want, have)
}
