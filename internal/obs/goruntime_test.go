package obs

import (
	"bytes"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// scrapeValue exports the registry and returns the sample of an
// unlabelled family.
func scrapeValue(t *testing.T, r *Registry, name string) float64 {
	t.Helper()
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if err := ValidateExposition(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, buf.String())
	}
	for _, line := range strings.Split(buf.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.ParseFloat(rest, 64)
			if err != nil {
				t.Fatalf("%s: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("exposition lacks %s:\n%s", name, buf.String())
	return 0
}

// TestGoRuntimeGauges: the three families are present, valid, positive
// once a GC cycle has run, and read at export time — a cycle between two
// scrapes shows in the second.
func TestGoRuntimeGauges(t *testing.T) {
	r := NewRegistry()
	r.GoRuntime()
	runtime.GC()
	cycles := scrapeValue(t, r, "rrc_go_gc_cycles_total")
	live := scrapeValue(t, r, "rrc_go_heap_live_bytes")
	goal := scrapeValue(t, r, "rrc_go_heap_goal_bytes")
	if cycles < 1 || live <= 0 || goal < live {
		t.Fatalf("cycles %v live %v goal %v after a forced GC", cycles, live, goal)
	}
	ballast := make([]byte, 32<<20)
	runtime.GC()
	if got := scrapeValue(t, r, "rrc_go_gc_cycles_total"); got <= cycles {
		t.Fatalf("cycles %v after another GC, was %v: not read on scrape", got, cycles)
	}
	if got := scrapeValue(t, r, "rrc_go_heap_live_bytes"); got < live+float64(len(ballast))/2 {
		t.Fatalf("live heap %v with %d more bytes held, was %v", got, len(ballast), live)
	}
	runtime.KeepAlive(ballast)
	var nilReg *Registry
	nilReg.GoRuntime() // no-op, like every other registration
}
