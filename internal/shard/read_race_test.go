package shard

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tsppr/internal/seq"
)

// prefixWindow checks that (items, pushed) is what user's session looks
// like after exactly `pushed` of its pushes, the k-th of which (0-based)
// is item user*1000+k: the last min(pushed, cap) of them, in order.
func prefixWindow(user, windowCap, pushed int, items []seq.Item) error {
	n := pushed
	if n > windowCap {
		n = windowCap
	}
	if len(items) != n {
		return fmt.Errorf("user %d at T=%d holds %d items, want %d", user, pushed, len(items), n)
	}
	for i, v := range items {
		if want := seq.Item(user*1000 + pushed - n + i); v != want {
			return fmt.Errorf("user %d at T=%d: item %d = %d, want %d (not a prefix of the push history)", user, pushed, i, v, want)
		}
	}
	return nil
}

// TestReadsAndCapturesRaceIngest is the contract of the shard lock and
// the off-lock materialisation, run under -race: while one goroutine
// ingests, readers take WindowCloneLSN and UserLSN for the same users,
// the status gauges are scraped, the capture path runs both ways it is
// reached (Dump, and the periodic background snapshot), and a second
// pool applies the first one's records, one ReadWAL's worth per call,
// through ApplyReplicated under readers of its own. Every window handed
// out must be the session after some whole number of its pushes — never
// a torn ring — with indexes that agree with its ring, and per user
// neither T nor the LSN may go backwards.
func TestReadsAndCapturesRaceIngest(t *testing.T) {
	const (
		users  = 6
		pushes = 400 // per user: the 8-slot rings wrap 50 times
	)
	dir := t.TempDir()
	cfg := testConfig(2)
	cfg.SnapshotEvery = 64
	p, err := Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	standby, err := Open(t.TempDir(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer standby.Close()

	var done atomic.Bool
	var dumps atomic.Int64
	var wg sync.WaitGroup
	fail := make(chan error, 8)
	report := func(err error) {
		select {
		case fail <- err:
		default:
		}
	}
	readWindows := func(p *Pool) {
		defer wg.Done()
		lastT := make([]int, users)
		lastLSN := make([]uint64, users)
		for i := 0; !done.Load(); i++ {
			runtime.Gosched()
			u := i % users
			win, lsn, ok, err := p.WindowCloneLSN(u)
			if err != nil {
				report(err)
				return
			}
			if !ok {
				continue
			}
			items, pushed := win.Snapshot()
			if err := prefixWindow(u, cfg.WindowCap, pushed, items); err != nil {
				report(err)
				return
			}
			if pushed < lastT[u] || lsn < lastLSN[u] {
				report(fmt.Errorf("user %d went backwards: T %d after %d, lsn %d after %d", u, pushed, lastT[u], lsn, lastLSN[u]))
				return
			}
			lastT[u], lastLSN[u] = pushed, lsn
			// The indexes were built off-lock from the copy: they must
			// describe exactly these items.
			for i, v := range items {
				gap, in := win.Gap(v)
				if !in || gap != len(items)-i || win.Count(v) != 1 {
					report(fmt.Errorf("user %d at T=%d: item %d gap (%d,%v) count %d", u, pushed, v, gap, in, win.Count(v)))
					return
				}
			}
			if win.NumDistinct() != len(items) || win.MaxCount() != 1 {
				report(fmt.Errorf("user %d at T=%d: %d distinct, max count %d", u, pushed, win.NumDistinct(), win.MaxCount()))
				return
			}
		}
	}
	readLSNs := func(p *Pool) {
		defer wg.Done()
		last := make([]uint64, users)
		for i := 0; !done.Load(); i++ {
			runtime.Gosched()
			u := i % users
			lsn, ok, err := p.UserLSN(u)
			if err != nil {
				report(err)
				return
			}
			if ok && lsn < last[u] {
				report(fmt.Errorf("user %d: lsn %d after %d", u, lsn, last[u]))
				return
			}
			last[u] = lsn
		}
	}
	scrape := func(p *Pool) { // what the rrc_shard_* gauges call
		defer wg.Done()
		for !done.Load() {
			runtime.Gosched()
			for _, st := range p.Statuses() {
				if st.State != Serving.String() {
					report(fmt.Errorf("shard %d %s mid-race", st.Shard, st.State))
					return
				}
			}
		}
	}
	for _, pool := range []*Pool{p, standby} {
		wg.Add(4)
		go readWindows(pool)
		go readWindows(pool)
		go readLSNs(pool)
		go scrape(pool)
	}
	wg.Add(1)
	go func() { // the capture path
		defer wg.Done()
		for !done.Load() {
			dumps.Add(1) // before the Dump: the count orders nothing it reads
			for _, uw := range p.Dump() {
				if err := prefixWindow(uw.User, cfg.WindowCap, uw.Pushed, uw.Items); err != nil {
					report(fmt.Errorf("dump: %w", err))
					return
				}
			}
		}
	}()
	shipped := make(chan error, 1)
	go func() { // the standby's tailer: ship every record until caught up after the last push
		shipped <- func() error {
			next := make([]uint64, p.N())
			for i := range next {
				next[i] = 1
			}
			for {
				finished := done.Load()
				idle := true
				for i := range next {
					var (
						err error
						run [][]byte
					)
					from := next[i]
					next[i], err = p.Shard(i).ReadWAL(from, 64, func(lsn uint64, payload []byte) error {
						run = append(run, slices.Clone(payload))
						return nil
					})
					if err != nil {
						return err
					}
					if len(run) > 0 {
						applied, err := standby.Shard(i).ApplyReplicated(from, run)
						if err == nil && applied != len(run) {
							err = fmt.Errorf("shard %d: lsns %d..%d shipped once, %d applied", i, from, next[i]-1, applied)
						}
						if err != nil {
							return err
						}
					}
					idle = idle && next[i] == from
				}
				if finished && idle {
					return nil
				}
			}
		}()
	}()

	for k, seen := 0, int64(0); k < pushes; k++ {
		for u := 0; u < users; u++ {
			if _, _, err := p.Ingest(u, seq.Item(u*1000+k)); err != nil {
				t.Fatal(err)
			}
		}
		if n := dumps.Load(); n == seen {
			runtime.Gosched() // every round races a capture
		} else {
			seen = n
		}
	}
	done.Store(true)
	wg.Wait()
	if err := <-shipped; err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-fail:
		t.Fatal(err)
	default:
	}
	if got, want := fingerprint(t, standby), fingerprint(t, p); got != want {
		t.Fatalf("standby state differs from the primary's:\n%s\n%s", got, want)
	}
	// The periodic snapshots (capture under the shard lock, write on a
	// background goroutine) were in the race too; the last write may
	// still be landing.
	periodic := func() (n int64) {
		for i := 0; i < p.N(); i++ {
			n += p.Shard(i).Status().Snapshots
		}
		return n
	}
	for deadline := time.Now().Add(5 * time.Second); periodic() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("no periodic snapshot ran: the background capture was not in the race")
		}
	}

	// What the snapshots captured mid-race is loadable and whole: reopen
	// and compare with the history.
	want := fingerprint(t, p)
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	p2, err := Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	if got := fingerprint(t, p2); got != want {
		t.Fatalf("reopened state differs:\n%s\n%s", got, want)
	}
	for _, uw := range p2.Dump() {
		if uw.Pushed != pushes {
			t.Fatalf("user %d recovered at T=%d, want %d", uw.User, uw.Pushed, pushes)
		}
		if err := prefixWindow(uw.User, cfg.WindowCap, uw.Pushed, uw.Items); err != nil {
			t.Fatal(err)
		}
	}
}
