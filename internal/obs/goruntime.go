package obs

import "runtime/metrics"

// GoRuntime registers the Go runtime's own account of the heap, so a
// memory claim can be checked from inside the process and not only as
// VmHWM from outside. The values are read from runtime/metrics when the
// registry is exported and at no other time: nothing is sampled between
// scrapes, and reading these three does not stop the world. No-op on a
// nil registry.
func (r *Registry) GoRuntime() {
	for _, m := range []struct{ name, key, help string }{
		{"rrc_go_heap_live_bytes", "/gc/heap/live:bytes",
			"Heap bytes the last completed GC cycle found live (0 before the first cycle)."},
		{"rrc_go_heap_goal_bytes", "/gc/heap/goal:bytes",
			"Heap size at which the next GC cycle ends."},
		{"rrc_go_gc_cycles_total", "/gc/cycles/total:gc-cycles",
			"Completed GC cycles since the process started."},
	} {
		sample := []metrics.Sample{{Name: m.key}}
		r.Help(m.name, m.help)
		r.GaugeFunc(m.name, func() float64 {
			// WritePrometheus calls this with the registry lock held, so
			// the one-element slice is never read into concurrently.
			metrics.Read(sample)
			if sample[0].Value.Kind() != metrics.KindUint64 {
				return 0 // a runtime that does not know the key
			}
			return float64(sample[0].Value.Uint64())
		})
	}
}
