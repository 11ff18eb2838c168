//go:build !race

package serve

// raceEnabled reports whether the race detector is active. Allocation
// pins are skipped under -race: the instrumented build allocates more
// (the 64-entry batch decode reads 84 instead of 75), so its counts say
// nothing about the plain binary.
const raceEnabled = false
