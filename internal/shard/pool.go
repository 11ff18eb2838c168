// The pool: N shards opened over one events root, request routing by
// user-id hash, pool-wide lifecycle (parallel recovery at open,
// parallel drain at close), and the per-shard metric families.
package shard

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"time"

	"sync"

	"tsppr/internal/obs"
	"tsppr/internal/seq"
	"tsppr/internal/sessions"
	"tsppr/internal/wal"
)

// MaxShards bounds -shards: beyond this an in-process pool stops
// making sense (use multiple processes).
const MaxShards = 256

// markerName is the shard-count marker file written into the events
// root. The count is part of the on-disk contract: reopening with a
// different N would silently remap users across WAL directories, so a
// mismatch is a loud error, never a reshard. The name deliberately does
// not match the shard-*/ directory pattern tools glob for.
const markerName = "shards"

// Config bounds a Pool and its shards. Zero fields pick the documented
// defaults.
type Config struct {
	Shards              int // failure domains; 0 → 1, max MaxShards
	WindowCap           int // |W| per user; required > 0
	MaxSessionsPerShard int // LRU session bound per shard; 0 → sessions.DefaultMaxUsers
	NumUsers            int // user-id validity bound; 0 → unbounded
	NumItems            int // item-id validity bound; 0 → unbounded

	Fsync         wal.SyncPolicy
	FsyncInterval time.Duration
	SnapshotEvery int   // snapshot a shard every N of its appends; 0 → only at drain
	SegmentBytes  int64 // per-shard WAL rotation threshold; 0 → wal default
	Corrupt       wal.CorruptPolicy

	// Partition is the slice of the user-key space this root owns when
	// several replicated pairs split the fleet. A zero Count leaves
	// partitioning unconfigured: an existing partition marker wins, and
	// a flat root stays partition 0 of 1 with nothing written. A
	// nonzero Count is reconciled against the marker by EnsurePartition
	// (mismatch = loud error unless the generation is bumped).
	Partition PartitionID

	// Metrics, when non-nil, receives the per-shard families
	// (rrc_shard_*) and the shared WAL instrumentation. Nil records
	// nothing.
	Metrics *obs.Registry

	// OnStoreReload, when non-nil, fires after a shard replaces its
	// in-memory session store wholesale — supervised restart,
	// divergent-tail truncation, snapshot reseed. Any of those can
	// REGRESS per-user LSNs (an unsynced WAL tail is lost, a divergent
	// tail is cut), so layers that version state by LSN (the response
	// cache) must treat the event as "all versions invalid", not rely on
	// LSN comparison. Called without shard locks held; must not block.
	OnStoreReload func(shard int)

	FailThreshold int           // consecutive append failures before the breaker trips; 0 → 3
	RestartBudget int           // failed recovery attempts per trip before Failed; 0 → 8
	BackoffBase   time.Duration // first restart delay; 0 → 50ms
	BackoffMax    time.Duration // backoff ceiling; 0 → 5s
}

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = 1
	}
	if c.MaxSessionsPerShard <= 0 {
		c.MaxSessionsPerShard = sessions.DefaultMaxUsers
	}
	if c.FailThreshold <= 0 {
		c.FailThreshold = 3
	}
	if c.RestartBudget <= 0 {
		c.RestartBudget = 8
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = 50 * time.Millisecond
	}
	if c.BackoffMax <= 0 {
		c.BackoffMax = 5 * time.Second
	}
	return c
}

// Pool is a fixed set of shards over one events root. Routing is pure
// (UserShard), so the pool itself holds no mutable state — each shard
// guards its own.
type Pool struct {
	root   string
	cfg    Config
	part   PartitionID
	shards []*Shard
}

var shardDirRe = regexp.MustCompile(`^shard-\d{3}$`)

// shardDir places shard i's files. A single-shard pool uses the root
// itself — byte-compatible with the pre-sharding layout, so existing
// event directories keep working with -shards=1.
func shardDir(root string, i, n int) string {
	if n == 1 {
		return root
	}
	return filepath.Join(root, fmt.Sprintf("shard-%03d", i))
}

// Open opens (or creates) an N-shard pool rooted at root, recovering
// every shard in parallel before returning. Layout and shard-count
// mismatches — an unsharded log opened with N>1, a sharded root opened
// with N=1, a marker disagreeing with N — are refused loudly: silently
// remapping users across WAL directories would orphan their windows.
func Open(root string, cfg Config) (*Pool, error) {
	cfg = cfg.withDefaults()
	if cfg.Shards > MaxShards {
		return nil, fmt.Errorf("shard: %d shards over the %d cap", cfg.Shards, MaxShards)
	}
	if cfg.WindowCap <= 0 {
		return nil, fmt.Errorf("shard: window capacity %d <= 0", cfg.WindowCap)
	}
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, fmt.Errorf("shard: %w", err)
	}
	if err := checkLayout(root, cfg.Shards); err != nil {
		return nil, err
	}
	part, err := EnsurePartition(root, cfg.Partition)
	if err != nil {
		return nil, err
	}

	shards := make([]*Shard, cfg.Shards)
	errs := make([]error, cfg.Shards)
	var wg sync.WaitGroup
	for i := range shards {
		sh := &Shard{
			index: i,
			dir:   shardDir(root, i, cfg.Shards),
			cfg:   cfg,
			point: IngestPoint(i),
			state: Recovering,
		}
		shards[i] = sh
		wg.Add(1)
		go func() {
			defer wg.Done()
			l, store, rstats, err := openState(sh.dir, cfg)
			if err != nil {
				errs[i] = fmt.Errorf("shard %d: %w", i, err)
				sh.state = Failed
				sh.lastErr = err
				return
			}
			sh.log, sh.store, sh.rstats = l, store, rstats
			sh.state = Serving
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		for _, sh := range shards {
			if sh.log != nil {
				sh.log.Close()
			}
		}
		return nil, err
	}
	p := &Pool{root: root, cfg: cfg, part: part, shards: shards}
	p.register(cfg.Metrics)
	return p, nil
}

// checkLayout validates the on-disk layout and the shard-count marker
// against the requested N, writing the marker on first open.
func checkLayout(root string, n int) error {
	if raw, err := os.ReadFile(filepath.Join(root, markerName)); err == nil {
		prev, perr := strconv.Atoi(strings.TrimSpace(string(raw)))
		if perr != nil {
			return fmt.Errorf("shard: unreadable shard-count marker in %s: %q", root, raw)
		}
		if prev != n {
			return fmt.Errorf("shard: %s was created with %d shard(s), reopened with %d — the user→shard mapping is fixed per events dir (start with -shards=%d or use a fresh dir)",
				root, prev, n, prev)
		}
	} else if !os.IsNotExist(err) {
		return fmt.Errorf("shard: %w", err)
	} else {
		// No marker: a legacy (pre-sharding) or fresh directory. Refuse
		// shapes the requested N cannot own.
		entries, err := os.ReadDir(root)
		if err != nil {
			return fmt.Errorf("shard: %w", err)
		}
		for _, e := range entries {
			name := e.Name()
			if n > 1 && !e.IsDir() && (strings.HasPrefix(name, "wal-") || strings.HasPrefix(name, "sessions-")) {
				return fmt.Errorf("shard: %s holds an unsharded event log (%s) but -shards=%d; keep -shards=1 for this dir or migrate it into %s",
					root, name, n, filepath.Join(root, "shard-000"))
			}
			if n == 1 && e.IsDir() && shardDirRe.MatchString(name) {
				return fmt.Errorf("shard: %s is a sharded events root (%s) but -shards=1; start with the original shard count",
					root, name)
			}
		}
		if err := os.WriteFile(filepath.Join(root, markerName), []byte(strconv.Itoa(n)+"\n"), 0o644); err != nil {
			return fmt.Errorf("shard: write marker: %w", err)
		}
	}
	return nil
}

// N returns the pool's shard count.
func (p *Pool) N() int { return len(p.shards) }

// Root returns the pool's events root — where cross-shard markers (the
// shard count, the replication epoch) live.
func (p *Pool) Root() string { return p.root }

// Shard returns shard i.
func (p *Pool) Shard(i int) *Shard { return p.shards[i] }

// ShardFor returns the shard index owning user.
func (p *Pool) ShardFor(user int) int { return UserShard(user, len(p.shards)) }

// Partition returns the pool's effective partition identity.
func (p *Pool) Partition() PartitionID { return p.part }

// OwnsUser reports whether this pool's partition owns user's keys.
// False means the request was misrouted (or the fleet is misconfigured)
// and must be refused with the owning-partition hint, never ingested.
func (p *Pool) OwnsUser(user int) bool { return p.part.Owns(user) }

// Ingest routes one consumption to its owning shard.
func (p *Pool) Ingest(user int, item seq.Item) (lsn uint64, winLen int, err error) {
	return p.shards[p.ShardFor(user)].Ingest(user, item)
}

// UserLSN routes a cache-version probe to its owning shard.
func (p *Pool) UserLSN(user int) (uint64, bool, error) {
	return p.shards[p.ShardFor(user)].UserLSN(user)
}

// WindowCloneLSN routes an atomic window+LSN read to its owning shard.
func (p *Pool) WindowCloneLSN(user int) (*seq.Window, uint64, bool, error) {
	return p.shards[p.ShardFor(user)].WindowCloneLSN(user)
}

// Drain gracefully stops shard i (final snapshot, fenced appends).
func (p *Pool) Drain(i int) error {
	if i < 0 || i >= len(p.shards) {
		return fmt.Errorf("shard: index %d out of [0,%d)", i, len(p.shards))
	}
	return p.shards[i].Drain()
}

// Close stops every shard in parallel: serving shards drain (final
// snapshot), tripped ones are force-stopped and their supervisors
// fenced. Returns the join of the per-shard errors.
func (p *Pool) Close() error {
	errs := make([]error, len(p.shards))
	var wg sync.WaitGroup
	for i, sh := range p.shards {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = sh.Close()
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// SnapshotAll flushes every serving shard's sessions now.
func (p *Pool) SnapshotAll() {
	for _, sh := range p.shards {
		sh.Snapshot()
	}
}

// Ready reports whether every shard is serving — the aggregate /readyz
// signal. Per-shard detail comes from States.
func (p *Pool) Ready() bool {
	for _, sh := range p.shards {
		if sh.State() != Serving {
			return false
		}
	}
	return true
}

// States returns every shard's current lifecycle state, indexed by
// shard.
func (p *Pool) States() []State {
	out := make([]State, len(p.shards))
	for i, sh := range p.shards {
		out[i] = sh.State()
	}
	return out
}

// Statuses returns every shard's status, indexed by shard.
func (p *Pool) Statuses() []Status {
	out := make([]Status, len(p.shards))
	for i, sh := range p.shards {
		out[i] = sh.Status()
	}
	return out
}

// WALStats returns the sum of every shard's log counters.
func (p *Pool) WALStats() wal.Stats {
	var total wal.Stats
	for _, sh := range p.shards {
		ws := sh.WALStats()
		total.Appends += ws.Appends
		total.Fsyncs += ws.Fsyncs
		total.Rotations += ws.Rotations
		total.RecoveredRecords += ws.RecoveredRecords
		total.TruncatedTails += ws.TruncatedTails
		total.TruncatedBytes += ws.TruncatedBytes
		total.SkippedCorrupt += ws.SkippedCorrupt
		total.PrunedSegments += ws.PrunedSegments
	}
	return total
}

// Dump merges every shard's sessions into one ascending-user listing —
// the pool-wide state fingerprint the chaos suite compares across runs.
// Users hash across shards, so the per-shard dumps interleave and the
// concatenation is sorted here; shard user sets are disjoint (routing
// is a function), so the order has no ties to break.
func (p *Pool) Dump() []sessions.UserWindow {
	var out []sessions.UserWindow
	for _, sh := range p.shards {
		out = append(out, sh.Dump()...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].User < out[j].User })
	return out
}

// register mints the per-shard metric families on reg. All handles are
// nil-safe, so a pool without a registry records nothing.
func (p *Pool) register(reg *obs.Registry) {
	reg.Help("rrc_shard_state", "Per-shard lifecycle state: 0 cold, 1 recovering, 2 serving, 3 draining, 4 stopped, 5 restarting, 6 failed.")
	reg.Help("rrc_shard_restarts_total", "Supervised shard restarts that reached serving again.")
	reg.Help("rrc_shard_breaker_trips_total", "Shard circuit-breaker trips: panics and append-failure streaks.")
	reg.Help("rrc_shard_recovery_lag", "WAL records the shard's most recent recovery had to replay.")
	reg.Help("rrc_shard_sessions", "Per-user session windows held by the shard.")
	reg.Help("rrc_shard_snapshot_lock_seconds", "Time a shard's lock was held for a snapshot: the in-memory capture of a periodic one, the whole of a final one.")
	reg.Help("rrc_shard_snapshot_write_seconds", "Time to encode, write and prune behind one snapshot, on or off the shard lock.")
	snapLock := reg.Histogram("rrc_shard_snapshot_lock_seconds", obs.LatencyBuckets)
	snapWrite := reg.Histogram("rrc_shard_snapshot_write_seconds", obs.LatencyBuckets)
	for _, sh := range p.shards {
		sh.mSnapLock, sh.mSnapWrite = snapLock, snapWrite
		lbl := fmt.Sprintf(`{shard="%d"}`, sh.index)
		sh.mRestarts = reg.Counter("rrc_shard_restarts_total" + lbl)
		sh.mTrips = reg.Counter("rrc_shard_breaker_trips_total" + lbl)
		reg.GaugeFunc("rrc_shard_state"+lbl, func() float64 { return float64(sh.State()) })
		reg.GaugeFunc("rrc_shard_recovery_lag"+lbl, func() float64 { return float64(sh.RecoverStats().Replayed) })
		reg.GaugeFunc("rrc_shard_sessions"+lbl, func() float64 { return float64(sh.Status().Sessions) })
	}
}
