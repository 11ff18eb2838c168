package shard

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"tsppr/internal/faultinject"
	"tsppr/internal/seq"
	"tsppr/internal/sessions"
	"tsppr/internal/wal"
)

// sourceSnapshot builds the new primary a reseed downloads from: a
// one-shard pool with events 500.. ingested and a snapshot at its last
// LSN. It returns the pool's windows and that snapshot.
func sourceSnapshot(t *testing.T, events int) (ref []sessions.UserWindow, path string, lsn uint64) {
	t.Helper()
	src, err := Open(t.TempDir(), testConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	for i := 0; i < events; i++ {
		if _, _, err := src.Ingest(i%8, seq.Item(500+i)); err != nil {
			t.Fatal(err)
		}
	}
	ref = src.Dump()
	if path, lsn, err = src.Shard(0).SnapshotInfo(); err != nil || lsn != uint64(events) {
		t.Fatalf("source snapshot lsn %d err %v", lsn, err)
	}
	return ref, path, lsn
}

// TestTruncateRefusesUnloadableBase: whether the reload after a cut can
// rebuild [1, cut) is the recovery loader's question, not the snapshot
// file names'. With the only snapshot below the cut damaged and the log
// pruned past it, TruncateAndReload refuses with wal.ErrPruned before it
// touches the directory: the shard keeps serving the same windows, and
// the reseed that the refusal calls for lands.
func TestTruncateRefusesUnloadableBase(t *testing.T) {
	ref, snapPath, snapLSN := sourceSnapshot(t, 20)
	dir := t.TempDir()
	cfg := testConfig(1)
	cfg.SegmentBytes = 4 * recordBytes
	p, err := Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	ingest := func(from, to int) {
		for i := from; i < to; i++ {
			if _, _, err := p.Ingest(i%8, seq.Item(100+i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	ingest(0, 30)
	p.SnapshotAll() // sessions-30, and the log pruned up to it
	ingest(30, 70)
	p.SnapshotAll() // sessions-70
	sh := p.Shard(0)
	sh.mu.Lock()
	oldest := sh.log.OldestLSN()
	sh.mu.Unlock()
	if oldest <= 1 || oldest > 31 {
		t.Fatalf("log starts at %d, want past 1 and reaching back to sessions-30", oldest)
	}
	base := sessions.SnapshotPath(shardDir(dir, 0), 30)
	if err := os.WriteFile(base, []byte("garbage\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	before := fingerprint(t, p)

	if err := sh.TruncateAndReload(35); !errors.Is(err, wal.ErrPruned) {
		t.Fatalf("truncate over a damaged base: %v, want wal.ErrPruned", err)
	}
	if st := sh.State(); st != Serving {
		t.Fatalf("shard %s after a refused truncate, want serving", st)
	}
	if got := fingerprint(t, p); got != before {
		t.Fatalf("refused truncate changed the windows\n got %s\nwant %s", got, before)
	}
	err = sh.Reseed(snapLSN, func(dir string) error {
		return copyFile(snapPath, sessions.SnapshotPath(dir, snapLSN))
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fmt.Sprint(p.Dump()), fmt.Sprint(ref); got != want {
		t.Fatalf("reseeded windows\n got %s\nwant %s", got, want)
	}
}

// TestFailedReseedIsSupervised: a reseed whose download fails has already
// quarantined the old timeline. The shard is handed to its supervisor,
// which reopens the emptied directory, so the shard serves again (empty,
// at LSN 1) and the retried reseed lands.
func TestFailedReseedIsSupervised(t *testing.T) {
	ref, snapPath, snapLSN := sourceSnapshot(t, 20)
	p, err := Open(t.TempDir(), testConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	seedEvents(t, p)
	sh := p.Shard(0)

	cut := errors.New("download cut short")
	if err := sh.Reseed(snapLSN, func(string) error { return cut }); !errors.Is(err, cut) {
		t.Fatalf("reseed with a failing populate: err = %v, want %v", err, cut)
	}
	waitState(t, sh, Serving)
	if next, err := sh.NextLSN(); err != nil || next != 1 {
		t.Fatalf("supervised shard after a failed reseed: next lsn %d err %v, want an empty log at 1", next, err)
	}
	if st := sh.Status(); st.Sessions != 0 || st.Restarts != 1 {
		t.Fatalf("supervised shard after a failed reseed: %+v, want empty after 1 restart", st)
	}

	err = sh.Reseed(snapLSN, func(dir string) error {
		return copyFile(snapPath, sessions.SnapshotPath(dir, snapLSN))
	})
	if err != nil {
		t.Fatal(err)
	}
	if next, err := sh.NextLSN(); err != nil || next != snapLSN+1 {
		t.Fatalf("reseeded shard: next lsn %d err %v, want %d", next, err, snapLSN+1)
	}
	if got, want := fmt.Sprint(p.Dump()), fmt.Sprint(ref); got != want {
		t.Fatalf("state after the retried reseed diverged\n got %s\nwant %s", got, want)
	}
}

// TestTruncateCrashWindowRecoversOneTimeline stops a truncation between
// its two edits of the directory (the "shard.truncate" fault point) and
// reopens the shard from what is on disk. Whatever edit came first, the
// reopened store must sit below the log's end — a snapshot above the log
// would make the store ignore the new timeline's records at those LSNs —
// and a retried truncate plus new ingests must match a shard that only
// ever saw the kept prefix and the new events.
func TestTruncateCrashWindowRecoversOneTimeline(t *testing.T) {
	defer faultinject.Reset()
	const cut = 35
	events := func(p *Pool, from, to, item int) {
		t.Helper()
		for i := from; i < to; i++ {
			if _, _, err := p.Ingest(i%8, seq.Item(item+i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	refPool, err := Open(t.TempDir(), testConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	defer refPool.Close()
	events(refPool, 0, cut-1, 100)
	events(refPool, cut-1, cut+9, 900)
	ref := fingerprint(t, refPool)

	dir := t.TempDir()
	p, err := Open(dir, testConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { p.Close() }()
	events(p, 0, 30, 100)
	p.SnapshotAll() // sessions-30: the recovery base below the cut
	events(p, 30, 70, 100)
	p.SnapshotAll() // sessions-70: bakes in the tail about to be cut
	sh := p.Shard(0)

	faultinject.Arm("shard.truncate", faultinject.Plan{Mode: faultinject.Error, Count: 1})
	if err := sh.TruncateAndReload(cut); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("truncate through the armed fault point: err = %v, want the injected fault", err)
	}
	waitState(t, sh, Serving)
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if p, err = Open(dir, testConfig(1)); err != nil {
		t.Fatal(err)
	}
	sh = p.Shard(0)
	next, err := sh.NextLSN()
	if err != nil {
		t.Fatal(err)
	}
	if applied := sh.Status().AppliedLSN; applied >= next {
		t.Fatalf("reopened after the crash window: store applied lsn %d, log next %d — a snapshot outlived the log it was taken from", applied, next)
	}

	if err := sh.TruncateAndReload(cut); err != nil {
		t.Fatalf("retried truncate: %v", err)
	}
	events(p, cut-1, cut+9, 900)
	if got := fingerprint(t, p); got != ref {
		t.Fatalf("retried truncate plus new ingests diverged\n got %s\nwant %s", got, ref)
	}
}

// modelEvent is one acked ingest on the modelled timeline.
type modelEvent struct {
	lsn  uint64
	user int
	item seq.Item
}

// shardModel is what a shard must hold: the windows the last reseed
// installed, the acked events since, in LSN order, and the next LSN.
type shardModel struct {
	base   []sessions.UserWindow
	events []modelEvent
	next   uint64
}

// cut drops every event at or past lsn, as a divergent-tail truncation
// does.
func (m *shardModel) cut(lsn uint64) {
	kept := m.events[:0]
	for _, e := range m.events {
		if e.lsn < lsn {
			kept = append(kept, e)
		}
	}
	m.events, m.next = kept, lsn
}

// dump is the model's Pool.Dump: each user's base window with that
// user's events pushed on top, in ascending user order.
func (m *shardModel) dump(t *testing.T, windowCap int) []sessions.UserWindow {
	t.Helper()
	rings := map[int]*seq.Ring{}
	for _, uw := range m.base {
		r, err := seq.RestoreRing(windowCap, uw.Pushed, uw.Items)
		if err != nil {
			t.Fatal(err)
		}
		rings[uw.User] = &r
	}
	for _, e := range m.events {
		if rings[e.user] == nil {
			r := seq.NewRing(windowCap)
			rings[e.user] = &r
		}
		rings[e.user].Push(e.item)
	}
	out := make([]sessions.UserWindow, 0, len(rings))
	for u, r := range rings {
		items, pushed := r.Snapshot()
		out = append(out, sessions.UserWindow{User: u, Pushed: pushed, Items: items})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].User < out[j].User })
	return out
}

// slabLeak returns the session-slab bytes mapped beyond mapped, the
// process's count before p opened, that no live store of p holds.
func slabLeak(p *Pool, mapped int64) int64 {
	live := int64(0)
	for _, sh := range p.shards {
		sh.mu.Lock()
		live += sh.store.SlabBytes()
		sh.mu.Unlock()
	}
	return sessions.MappedBytes() - mapped - live
}

// TestShardLifecycleProperty drives a shard through random sequences of
// ingests, reads, snapshots, ingest panics, divergent-tail truncations
// (some stopped by a fault between their two edits of the directory),
// reseeds (some whose download fails) and damage to every snapshot file
// followed by a restart, and checks after every step:
//   - only a serving shard accepts ingests and reads;
//   - its windows hold exactly the acked events no truncate or reseed
//     cut, in order, on top of the last reseed's snapshot, and its store
//     sits below its log's end;
//   - OnStoreReload fired once per store swap, and every store swapped
//     out released its slab: the process maps no slab bytes beyond the
//     live store's, and none once the pool is closed;
//   - after every injected failure it serves again, restarted once by
//     its supervisor, within the restart budget — or, once its snapshots
//     were damaged and its log no longer reaches back to them, it fails
//     and never serves again.
func TestShardLifecycleProperty(t *testing.T) {
	defer faultinject.Reset()
	const users = 6
	src, snapPath, snapLSN := sourceSnapshot(t, 25)
	errDownload := errors.New("download cut short")
	rejected, failed := 0, 0
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var reloads atomic.Int64
		cfg := testConfig(1)
		cfg.SnapshotEvery = 4
		cfg.SegmentBytes = 4 * recordBytes // rotate often, so some truncations find their base pruned
		cfg.OnStoreReload = func(int) { reloads.Add(1) }
		mapped := sessions.MappedBytes()
		p, err := Open(t.TempDir(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		sh := p.Shard(0)
		m := shardModel{next: 1}
		var swaps, failures int64
		var history []string
		damaged := false // snapshot files overwritten since the last reseed
		fail := func(format string, args ...any) {
			t.Helper()
			t.Fatalf("seed %d %v: "+format, append([]any{seed, history}, args...)...)
		}

		// op runs one ingest or read, which may meet the shard down, and
		// holds it to the fencing rule; acked ingests join the model.
		op := func(ingest bool) error {
			t.Helper()
			u := rng.Intn(users)
			var err error
			if ingest {
				item := seq.Item(rng.Intn(50))
				var lsn uint64
				if lsn, _, err = sh.Ingest(u, item); err == nil {
					if lsn != m.next {
						fail("ingest acked at lsn %d, model next %d", lsn, m.next)
					}
					m.events = append(m.events, modelEvent{lsn, u, item})
					m.next++
				}
			} else {
				_, _, _, err = sh.WindowCloneLSN(u)
			}
			var ue *UnavailableError
			switch {
			case err == nil && sh.State() != Serving:
				fail("op accepted by a %s shard", sh.State())
			case err != nil && (!errors.As(err, &ue) || ue.State == Serving):
				fail("op refused with %v", err)
			case err != nil:
				rejected++
			}
			return err
		}
		// recovered waits out the supervisor after an injected failure. It
		// reports false for a shard that failed for good, which only a
		// recovery refused for want of a snapshot may cause.
		recovered := func() bool {
			t.Helper()
			failures++
			swaps++
			deadline := time.Now().Add(5 * time.Second)
			for st := sh.State(); st != Serving; st = sh.State() {
				if st == Failed && damaged {
					return false
				}
				if st == Failed || time.Now().After(deadline) {
					fail("shard %s after an injected failure", st)
				}
				time.Sleep(time.Millisecond)
			}
			if st := sh.Status(); st.Restarts != failures {
				fail("%d supervised restarts after %d injected failures", st.Restarts, failures)
			}
			return true
		}

	steps:
		for step := 0; step < 40; step++ {
			switch rng.Intn(8) {
			case 0, 1:
				history = append(history, "ingest")
				if err := op(true); err != nil {
					fail("ingest on a serving shard: %v", err)
				}
			case 2:
				history = append(history, "read")
				if err := op(false); err != nil {
					fail("read on a serving shard: %v", err)
				}
			case 3:
				history = append(history, "snapshot")
				sh.Snapshot()
			case 4:
				history = append(history, "panic")
				faultinject.Arm(IngestPoint(0), faultinject.Plan{Mode: faultinject.Panic, Count: 1})
				if _, _, err := sh.Ingest(0, 1); !errors.As(err, new(*UnavailableError)) {
					fail("panicking ingest: %v", err)
				}
				op(rng.Intn(2) == 0)
				if !recovered() {
					break steps
				}
			case 5:
				if m.next <= 1 {
					continue // nothing to cut
				}
				lsn := m.next - 1 - min(uint64(rng.Intn(4)), m.next-2)
				crash := rng.Intn(3) == 0
				history = append(history, fmt.Sprintf("truncate@%d crash=%v", lsn, crash))
				if crash {
					faultinject.Arm("shard.truncate", faultinject.Plan{Mode: faultinject.Error, Count: 1})
				}
				err := sh.TruncateAndReload(lsn)
				faultinject.Disarm("shard.truncate")
				switch {
				case err == nil:
					m.cut(lsn)
					swaps++
				case errors.Is(err, wal.ErrPruned) && sh.State() == Serving:
					// No loadable base below the cut: the shard serves
					// untouched.
				case crash && errors.Is(err, faultinject.ErrInjected):
					if !recovered() {
						break steps
					}
					// Stopped between its edits, the shard holds one
					// timeline: the old one whole, or cut at lsn.
					if next, _ := sh.NextLSN(); next == lsn {
						m.cut(lsn)
					}
				default:
					fail("truncate: %v", err)
				}
			case 6:
				ok := rng.Intn(2) == 0
				history = append(history, fmt.Sprintf("reseed ok=%v", ok))
				err := sh.Reseed(snapLSN, func(dir string) error {
					if !ok {
						return errDownload
					}
					return copyFile(snapPath, sessions.SnapshotPath(dir, snapLSN))
				})
				damaged = false // quarantined with the old timeline
				if ok {
					if err != nil {
						fail("reseed: %v", err)
					}
					m = shardModel{base: src, next: snapLSN + 1}
					swaps++
					break
				}
				if !errors.Is(err, errDownload) {
					fail("reseed with a failing download: %v", err)
				}
				op(rng.Intn(2) == 0)
				recovered()
				m = shardModel{next: 1}
			case 7:
				history = append(history, "damage snapshots")
				sh.lockQuiesced() // no snapshot write lands behind the damage
				sh.mu.Unlock()
				snaps, err := filepath.Glob(filepath.Join(sh.dir, "sessions-*.snap"))
				if err != nil {
					t.Fatal(err)
				}
				for _, path := range snaps {
					if err := os.WriteFile(path, []byte("garbage\n"), 0o644); err != nil {
						t.Fatal(err)
					}
				}
				damaged = damaged || len(snaps) > 0
				faultinject.Arm(IngestPoint(0), faultinject.Plan{Mode: faultinject.Panic, Count: 1})
				if _, _, err := sh.Ingest(0, 1); !errors.As(err, new(*UnavailableError)) {
					fail("panicking ingest: %v", err)
				}
				if !recovered() {
					break steps
				}
			}

			if st := sh.State(); st != Serving {
				fail("shard %s after the step", st)
			}
			next, err := sh.NextLSN()
			if err != nil || next != m.next {
				fail("log next %d (err %v), model %d", next, err, m.next)
			}
			if applied := sh.Status().AppliedLSN; applied >= next {
				fail("store applied lsn %d at or past the log's next %d", applied, next)
			}
			if got, want := fmt.Sprint(p.Dump()), fmt.Sprint(m.dump(t, cfg.WindowCap)); got != want {
				fail("windows diverged from the acked events\n got %s\nwant %s", got, want)
			}
			deadline := time.Now().Add(5 * time.Second)
			for reloads.Load() < swaps && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			if got := reloads.Load(); got != swaps {
				fail("OnStoreReload fired %d times for %d store swaps", got, swaps)
			}
			if leak := slabLeak(p, mapped); leak != 0 {
				fail("%d B of session slabs mapped beyond the live store's", leak)
			}
		}
		if sh.State() == Failed {
			// Failed for good: every op is refused, and no supervisor
			// brings the shard back.
			for i := 0; i < 4; i++ {
				op(i%2 == 0)
				time.Sleep(5 * cfg.BackoffMax)
			}
			if st := sh.State(); st != Failed {
				fail("failed shard came back %s", st)
			}
			failed++
		}
		if err := p.Close(); err != nil {
			t.Fatal(err)
		}
		if leak := slabLeak(p, mapped); leak != 0 {
			fail("%d B of session slabs still mapped after Close", leak)
		}
	}
	if rejected == 0 {
		t.Fatal("no op ever met a shard that was down: the fencing rule went unchecked")
	}
	if failed == 0 {
		t.Fatal("no damaged shard ever lacked a recovery base: the refusal went unchecked")
	}
}
