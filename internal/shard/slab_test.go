package shard

import (
	"bytes"
	"errors"
	"strconv"
	"strings"
	"testing"

	"tsppr/internal/obs"
	"tsppr/internal/seq"
	"tsppr/internal/sessions"
)

// TestSlabGaugeIsTheLiveStoresSlabs: rrc_sessions_slab_bytes reports the
// bytes mapped for session windows, which are the live stores' slabs
// summed over the shards — after ingest, after a reload swaps one
// shard's store, and (nothing) after Close — and at least 4 B per item
// of every full window.
func TestSlabGaugeIsTheLiveStoresSlabs(t *testing.T) {
	const users = 1500 // past one chunk in every shard
	cfg := testConfig(3)
	reg := obs.NewRegistry()
	cfg.Metrics = reg
	mapped := sessions.MappedBytes()
	p, err := Open(t.TempDir(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	gauge := func() int64 {
		t.Helper()
		var buf bytes.Buffer
		if err := reg.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(buf.String(), "\n") {
			if v, ok := strings.CutPrefix(line, "rrc_sessions_slab_bytes "); ok {
				f, err := strconv.ParseFloat(v, 64)
				if err != nil {
					t.Fatal(err)
				}
				return int64(f) - mapped
			}
		}
		t.Fatal("no rrc_sessions_slab_bytes on /metrics")
		return 0
	}
	check := func(when string) {
		t.Helper()
		live := int64(0)
		for _, sh := range p.shards {
			sh.mu.Lock()
			live += sh.store.SlabBytes()
			sh.mu.Unlock()
		}
		if got := gauge(); got != live {
			t.Fatalf("%s: gauge %d B, live stores' slabs %d B", when, got, live)
		}
	}
	for k := 0; k < cfg.WindowCap; k++ {
		for u := 0; u < users; u++ {
			if _, _, err := p.Ingest(u, seq.Item(k)); err != nil {
				t.Fatal(err)
			}
		}
	}
	check("after ingest")
	if got, floor := gauge(), int64(users*cfg.WindowCap*4); got < floor {
		t.Fatalf("gauge %d B under |W| x 4 B for each of %d sessions (%d B)", got, users, floor)
	}
	sh := p.Shard(1)
	next, err := sh.NextLSN()
	if err != nil {
		t.Fatal(err)
	}
	if err := sh.TruncateAndReload(next - 10); err != nil {
		t.Fatal(err)
	}
	check("after a reload")
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	check("after Close")
	if got := gauge(); got != 0 {
		t.Fatalf("closed pool still maps %d B", got)
	}
}

// TestClosedStorePanicTripsTheBreaker: a window method on a closed store
// panics on its nil slab rather than read released memory, and Shard.op
// takes that panic like any other: the op is refused, the breaker
// trips, and the supervisor reopens the shard over a fresh store with
// the windows the log holds.
func TestClosedStorePanicTripsTheBreaker(t *testing.T) {
	p, err := Open(t.TempDir(), testConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	want := seedEvents(t, p)
	sh := p.Shard(0)
	ops := []struct {
		name string
		op   func() error
	}{
		{"UserLSN", func() error { _, _, err := sh.UserLSN(3); return err }},
		{"WindowCloneLSN", func() error { _, _, _, err := sh.WindowCloneLSN(3); return err }},
		{"Ingest", func() error { _, _, err := sh.Ingest(3, 1); return err }},
	}
	for i, o := range ops {
		sh.mu.Lock()
		sh.store.Close()
		sh.mu.Unlock()
		var ue *UnavailableError
		if err := o.op(); !errors.As(err, &ue) || !strings.Contains(err.Error(), "panic") {
			t.Fatalf("%s on a closed store: %v, want the breaker's UnavailableError for a panic", o.name, err)
		}
		if st := sh.Status(); st.BreakerTrips != int64(i+1) {
			t.Fatalf("%s: %d breaker trips, want %d", o.name, st.BreakerTrips, i+1)
		}
		waitState(t, sh, Serving)
		if o.name == "Ingest" {
			break // its event is in the log; the reads' windows are checked
		}
		if got := fingerprint(t, p); got != want {
			t.Fatalf("after %s's restart the windows are\n%s\nwant\n%s", o.name, got, want)
		}
	}
	if _, _, err := sh.Ingest(3, 2); err != nil {
		t.Fatalf("ingest after the restarts: %v", err)
	}
}
