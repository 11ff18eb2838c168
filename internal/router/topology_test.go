package router

import (
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestRouterWatchesTopologyFile(t *testing.T) {
	a := &fakeNode{caughtUp: true}
	b := &fakeNode{role: roleFollower, caughtUp: true}
	a.ts = httptest.NewServer(a.handler())
	b.ts = httptest.NewServer(b.handler())
	t.Cleanup(a.ts.Close)
	t.Cleanup(b.ts.Close)

	path := filepath.Join(t.TempDir(), "nodes")
	if err := os.WriteFile(path, []byte(a.ts.URL+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	rt, err := New(Config{
		TopologyPath:  path,
		ProbeInterval: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()
	t.Cleanup(rt.Stop)
	if got := rt.Nodes(); len(got) != 1 || got[0] != a.ts.URL {
		t.Fatalf("initial topology %v", got)
	}

	// Add node b; backdate-proof the mtime change by rewriting with a
	// bumped modification time.
	if err := os.WriteFile(path, []byte(a.ts.URL+"\n"+b.ts.URL+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	future := time.Now().Add(2 * time.Second)
	if err := os.Chtimes(path, future, future); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "topology reload", func() bool { return len(rt.Nodes()) == 2 })
	waitFor(t, "new node probed", func() bool {
		for _, ns := range mustStatus(rt).Nodes {
			if ns.URL == b.ts.URL && ns.Reachable {
				return true
			}
		}
		return false
	})

	// A broken rewrite must keep the last good topology.
	if err := os.WriteFile(path, []byte("::::\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	later := future.Add(2 * time.Second)
	if err := os.Chtimes(path, later, later); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	if got := rt.Nodes(); len(got) != 2 {
		t.Fatalf("broken topology file emptied the fleet: %v", got)
	}
}

func TestTopologyReloadDetectsSameMtimeRewrite(t *testing.T) {
	// On filesystems with 1s mtime granularity two edits can land on
	// the same timestamp; the watch key must include the size so the
	// second edit is not silently skipped.
	path := filepath.Join(t.TempDir(), "nodes")
	if err := os.WriteFile(path, []byte("http://a:8395\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	mtime := time.Now().Truncate(time.Second)
	if err := os.Chtimes(path, mtime, mtime); err != nil {
		t.Fatal(err)
	}
	rt, err := New(Config{TopologyPath: path})
	if err != nil {
		t.Fatal(err)
	}

	// Rewrite with the mtime pinned: only the size moves.
	if err := os.WriteFile(path, []byte("http://a:8395\nhttp://b:8396\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Chtimes(path, mtime, mtime); err != nil {
		t.Fatal(err)
	}
	rt.reloadTopology()
	if got := rt.Nodes(); len(got) != 2 {
		t.Fatalf("same-mtime rewrite not applied: %v", got)
	}
	rt.Stop() // never Started: must return without blocking
}

// TestRemovedSurfaceFailsLoudly pins what this package no longer does:
// each row was accepted by an earlier build and must now be refused by
// name, never half-applied.
func TestRemovedSurfaceFailsLoudly(t *testing.T) {
	a := &fakeNode{caughtUp: true}
	rt := startFakes(t, []*fakeNode{a}, func(c *Config) {
		c.Nodes = nil
		c.TopologyPath = filepath.Join(t.TempDir(), "topology")
		if err := os.WriteFile(c.TopologyPath, []byte(a.ts.URL+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	})

	// The resize window: a file that opens one does not load, and a
	// running router keeps its last good layout.
	path := rt.cfg.TopologyPath
	resize := "partitions 1\npartition 0 " + a.ts.URL + "\n" +
		"next-partitions 3\nnext 0 " + a.ts.URL + "\nnext 1 http://b:1\nnext 2 http://c:1\n"
	if err := os.WriteFile(path, []byte(resize), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadTopologyFile(path); err == nil || !strings.Contains(err.Error(), `"next-partitions"`) {
		t.Fatalf("next-partitions file: err = %v, want a refusal naming the directive", err)
	}
	rt.reloadTopology()
	if got := rt.Nodes(); len(got) != 1 || got[0] != a.ts.URL {
		t.Fatalf("refused topology file displaced the layout: %v", got)
	}

	// The second status body: /readyz and /metrics are the status surface.
	rr := httptest.NewRecorder()
	rt.Routes().ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/stats", nil))
	if rr.Code != http.StatusNotFound {
		t.Fatalf("GET /stats = %d, want 404", rr.Code)
	}
}

func mustStatus(rt *Router) Status {
	st, _ := rt.statusSnapshot()
	return st
}
