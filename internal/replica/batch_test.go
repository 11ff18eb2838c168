package replica_test

// A standby makes each stream response durable with one append: one
// write per segment touched and one fsync under -fsync always. These
// tests pin the fsync count of a catch-up and the ordering that makes
// the batch safe: nothing of a response is applied, counted or
// advertised before the whole of it is durable.

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"time"

	"tsppr/internal/faultinject"
	"tsppr/internal/obs"
	"tsppr/internal/replica"
	"tsppr/internal/shard"
	"tsppr/internal/wal"
)

// TestStandbyCatchUpFsyncsPerResponse: a standby 3,000 records behind on
// its one shard catches up with one fsync per stream response of up to
// wal.DefaultReadBatch records, where applying record by record took
// one fsync each.
func TestStandbyCatchUpFsyncsPerResponse(t *testing.T) {
	const behind = 3000
	primaryPool, err := shard.Open(t.TempDir(), shard.Config{Shards: 1, WindowCap: 8, Fsync: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer primaryPool.Close()
	ingest(t, primaryPool, 50, behind)
	_, ts := newPrimary(t, primaryPool)

	followPool, err := shard.Open(t.TempDir(), shard.Config{Shards: 1, WindowCap: 8, Fsync: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer followPool.Close()
	reg := obs.NewRegistry()
	f := newFollower(t, ts.URL, followPool, reg)
	waitCaughtUp(t, f)
	f.Close()

	if got := reg.SumCounters(appliedFamily); got != behind {
		t.Fatalf("applied %d records, want %d", got, behind)
	}
	bound := int64((behind+wal.DefaultReadBatch-1)/wal.DefaultReadBatch + 2)
	if got := followPool.Shard(0).WALStats().Fsyncs; got > bound {
		t.Fatalf("catching up %d records took %d fsyncs, want at most %d", behind, got, bound)
	}
	if got, want := fingerprint(t, followPool), fingerprint(t, primaryPool); got != want {
		t.Fatal("follower state diverged")
	}
}

// TestStandbyAppliesNothingOfAFailedBatch arms a fault on the standby's
// append of one stream response: at the shard's append point, and as a
// write torn in the response's second segment. While it fires, the
// standby's windows, rrc_replica_applied_total and the shard_applied_lsn
// its /readyz reports all stay where they were before the response.
// Disarmed, the tailer converges to the primary's windows and to its
// segment files byte for byte.
func TestStandbyAppliesNothingOfAFailedBatch(t *testing.T) {
	for _, tc := range []struct {
		name, point string
		plan        faultinject.Plan
	}{
		{"append point", shard.IngestPoint(0), faultinject.Plan{Mode: faultinject.Error}},
		{"torn write", "wal.append", faultinject.Plan{Mode: faultinject.ShortWrite, After: 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			faultinject.Reset()
			defer faultinject.Reset()
			cfg := poolCfg(1, 0)
			cfg.FailThreshold = 1 << 20 // the breaker stays closed while the fault fires
			primaryRoot, followRoot := t.TempDir(), t.TempDir()
			primaryPool, err := shard.Open(primaryRoot, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer primaryPool.Close()
			ingest(t, primaryPool, 6, 50)

			// The gate holds the standby's next poll while the primary
			// ingests the batch, so the armed fault is the standby's alone.
			srv, err := replica.Open(primaryPool, replica.Config{Wait: 50 * time.Millisecond})
			if err != nil {
				t.Fatal(err)
			}
			mux := http.NewServeMux()
			srv.Register(mux)
			var gate sync.RWMutex
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				gate.RLock()
				defer gate.RUnlock()
				mux.ServeHTTP(w, r)
			}))
			defer ts.Close()

			followPool, err := shard.Open(followRoot, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer followPool.Close()
			reg := obs.NewRegistry()
			f := newFollower(t, ts.URL, followPool, reg)
			waitCaughtUp(t, f)
			window, applied, lsns := fingerprint(t, followPool), reg.SumCounters(appliedFamily), f.Status().ShardAppliedLSN

			gate.Lock()
			ingest(t, primaryPool, 6, 40) // 40 records of 16 bytes: five 128-byte segments
			faultinject.Arm(tc.point, tc.plan)
			gate.Unlock()
			deadline := time.Now().Add(10 * time.Second)
			for _, fired := faultinject.Hits(tc.point); fired < 2; _, fired = faultinject.Hits(tc.point) {
				if time.Now().After(deadline) {
					t.Fatal("the standby never retried the failed batch")
				}
				time.Sleep(time.Millisecond)
			}
			if got := fingerprint(t, followPool); got != window {
				t.Fatal("the standby's windows moved while its batch failed")
			}
			if got := reg.SumCounters(appliedFamily); got != applied {
				t.Fatalf("rrc_replica_applied_total %d while the batch failed, %d before it", got, applied)
			}
			if got := f.Status().ShardAppliedLSN; !slices.Equal(got, lsns) {
				t.Fatalf("shard_applied_lsn %v while the batch failed, %v before it", got, lsns)
			}
			if rec, _ := f.Lag(0); rec != 40 {
				t.Fatalf("lag %d records while the batch failed, want 40", rec)
			}

			faultinject.Disarm(tc.point)
			for fingerprint(t, followPool) != fingerprint(t, primaryPool) || reg.SumCounters(appliedFamily) != applied+40 {
				if time.Now().After(deadline) {
					t.Fatalf("never converged: applied %d", reg.SumCounters(appliedFamily))
				}
				time.Sleep(5 * time.Millisecond)
			}
			f.Close()
			primarySegs, followSegs := walFiles(t, primaryRoot), walFiles(t, followRoot)
			if len(primarySegs) != len(followSegs) {
				t.Fatalf("%d segments on the primary, %d on the standby", len(primarySegs), len(followSegs))
			}
			for name, b := range primarySegs {
				if o, ok := followSegs[name]; !ok || !bytes.Equal(b, o) {
					t.Fatalf("%s differs between primary and standby", name)
				}
			}
		})
	}
}

// TestStandbyAppliesFramesBeforeATornOne: a response whose last frame is
// torn still has its whole frames applied before the tailer drops it, so
// the next poll resumes past them instead of fetching them again.
func TestStandbyAppliesFramesBeforeATornOne(t *testing.T) {
	primaryPool, err := shard.Open(t.TempDir(), poolCfg(1, 0))
	if err != nil {
		t.Fatal(err)
	}
	defer primaryPool.Close()
	ingest(t, primaryPool, 6, 20)
	srv, err := replica.Open(primaryPool, replica.Config{Wait: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	srv.Register(mux)
	var (
		mu    sync.Mutex
		froms []string
	)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/replica/stream" {
			mux.ServeHTTP(w, r)
			return
		}
		mu.Lock()
		froms = append(froms, r.URL.Query().Get("from"))
		first := len(froms) == 1
		mu.Unlock()
		mux.ServeHTTP(w, r)
		if first {
			w.Write([]byte{8, 0, 0}) // a frame header cut short
		}
	}))
	defer ts.Close()

	followPool, err := shard.Open(t.TempDir(), poolCfg(1, 0))
	if err != nil {
		t.Fatal(err)
	}
	defer followPool.Close()
	reg := obs.NewRegistry()
	f := newFollower(t, ts.URL, followPool, reg)
	waitCaughtUp(t, f)
	f.Close()

	if got := reg.SumCounters("rrc_replica_stream_errors_total"); got != 1 {
		t.Fatalf("%d stream errors, want the one torn frame", got)
	}
	if got := reg.SumCounters(appliedFamily); got != 20 {
		t.Fatalf("applied %d records, want 20", got)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(froms) < 2 || froms[0] != "1" || froms[1] != "21" {
		t.Fatalf("polls from %v: the one after the torn response must resume at 21", froms)
	}
}

// walFiles reads shard 0's WAL segments under a pool root, by name.
func walFiles(t *testing.T, root string) map[string][]byte {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(root, "shard-000", "wal-*.log"))
	if err != nil {
		t.Fatal(err)
	}
	files := map[string][]byte{}
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		files[filepath.Base(p)] = b
	}
	return files
}
