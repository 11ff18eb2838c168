// Package faultinject provides deterministic, seed-driven failure points
// for resilience testing. Production code marks potential failure sites
// with Do, Fire, or WrapWriter; by default every point is disarmed and the
// instrumentation costs a single atomic load. Tests arm points with plans
// that decide — as a pure function of the hit count and an optional seed —
// whether a given hit fires, so failure schedules replay identically
// across runs regardless of goroutine interleaving at the call site.
//
// Points are plain dotted strings owned by the instrumented package, e.g.
// "server.score" or "core.io.write". Arming a point another package never
// hits is not an error; it simply never fires.
package faultinject

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// Mode selects what an armed point does when a hit fires.
type Mode int

const (
	// Panic makes Do panic, simulating a bug in the instrumented path.
	Panic Mode = iota
	// Delay makes Do — or a WrapWriter's Write, before it writes — sleep
	// for Plan.Sleep, simulating a stall.
	Delay
	// Error makes Do return Plan.Err (ErrInjected if nil).
	Error
	// ShortWrite makes a WrapWriter write only half its buffer and fail,
	// simulating a full disk or a kill mid-write.
	ShortWrite
	// Corrupt makes a WrapWriter flip one bit of the buffer and carry on,
	// simulating silent media corruption.
	Corrupt
)

func (m Mode) String() string {
	switch m {
	case Panic:
		return "panic"
	case Delay:
		return "delay"
	case Error:
		return "error"
	case ShortWrite:
		return "short-write"
	case Corrupt:
		return "corrupt"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// ErrInjected is the default error produced by Error and ShortWrite plans.
var ErrInjected = errors.New("faultinject: injected fault")

// Plan schedules when an armed point fires. The zero value fires on every
// hit with the zero Mode (Panic).
type Plan struct {
	Mode  Mode
	After int           // skip the first After hits
	Count int           // fire at most Count times (0 = unlimited)
	Prob  float64       // fire with probability Prob (0 = always); deterministic in Seed and hit index
	Seed  uint64        // seed for Prob draws
	Sleep time.Duration // Delay mode stall
	Err   error         // Error/ShortWrite mode error (nil = ErrInjected)
}

type point struct {
	plan  Plan
	hits  int // total hits since armed
	fired int // hits that fired
}

var (
	mu    sync.Mutex
	armed map[string]*point

	// enabled mirrors len(armed) > 0 and is the lock-free fast path: a
	// disarmed process pays one atomic load per hit.
	enabled atomic.Bool
)

// Arm schedules p at the named point, replacing any existing plan and
// resetting its hit count.
func Arm(name string, p Plan) {
	mu.Lock()
	defer mu.Unlock()
	if armed == nil {
		armed = make(map[string]*point)
	}
	armed[name] = &point{plan: p}
	enabled.Store(true)
}

// Disarm removes the plan at the named point, if any.
func Disarm(name string) {
	mu.Lock()
	defer mu.Unlock()
	delete(armed, name)
	if len(armed) == 0 {
		enabled.Store(false)
	}
}

// Reset disarms every point. Tests should defer Reset after arming.
func Reset() {
	mu.Lock()
	defer mu.Unlock()
	armed = nil
	enabled.Store(false)
}

// Fire records a hit at the named point and reports whether it fires,
// returning the armed plan. When nothing is armed it is a single atomic
// load.
func Fire(name string) (Plan, bool) {
	if !enabled.Load() {
		return Plan{}, false
	}
	mu.Lock()
	defer mu.Unlock()
	pt := armed[name]
	if pt == nil {
		return Plan{}, false
	}
	idx := pt.hits
	pt.hits++
	if idx < pt.plan.After {
		return Plan{}, false
	}
	if pt.plan.Count > 0 && pt.fired >= pt.plan.Count {
		return Plan{}, false
	}
	if p := pt.plan.Prob; p > 0 && p < 1 {
		if u01(pt.plan.Seed, uint64(idx)) >= p {
			return Plan{}, false
		}
	}
	pt.fired++
	return pt.plan, true
}

// Hits returns how many times the named point was hit since it was armed
// and how many of those hits fired.
func Hits(name string) (hits, fired int) {
	mu.Lock()
	defer mu.Unlock()
	if pt := armed[name]; pt != nil {
		return pt.hits, pt.fired
	}
	return 0, 0
}

// Do is the general-purpose failure point for code paths: it panics under
// a Panic plan, sleeps under a Delay plan, and returns the plan's error
// under an Error plan. Disarmed (the production default) it does nothing.
func Do(name string) error {
	p, fire := Fire(name)
	if !fire {
		return nil
	}
	switch p.Mode {
	case Panic:
		panic(fmt.Sprintf("faultinject: %s", name))
	case Delay:
		time.Sleep(p.Sleep)
		return nil
	case Error:
		if p.Err != nil {
			return p.Err
		}
		return ErrInjected
	default:
		return nil
	}
}

// WrapWriter instruments w with the named point. Each Write hits the
// point once; a firing ShortWrite plan writes half the buffer then fails,
// a firing Corrupt plan flips one bit (chosen deterministically from the
// seed and hit index) and writes normally, a firing Delay plan sleeps and
// then writes normally. Disarmed it forwards verbatim.
func WrapWriter(name string, w io.Writer) io.Writer {
	return &faultWriter{name: name, w: w}
}

type faultWriter struct {
	name string
	w    io.Writer
}

func (fw *faultWriter) Write(b []byte) (int, error) {
	p, fire := Fire(fw.name)
	if !fire {
		return fw.w.Write(b)
	}
	switch p.Mode {
	case ShortWrite:
		n, err := fw.w.Write(b[:len(b)/2])
		if err != nil {
			return n, err
		}
		if p.Err != nil {
			return n, p.Err
		}
		return n, ErrInjected
	case Corrupt:
		if len(b) > 0 {
			c := make([]byte, len(b))
			copy(c, b)
			off := u64(p.Seed, uint64(len(b)))
			c[off%uint64(len(b))] ^= 1 << (off % 8)
			b = c
		}
		return fw.w.Write(b)
	case Delay:
		time.Sleep(p.Sleep)
		return fw.w.Write(b)
	default:
		return fw.w.Write(b)
	}
}

// u64 is SplitMix64 over (seed, n): a pure deterministic hash used for
// Prob draws and corruption offsets.
func u64(seed, n uint64) uint64 {
	z := seed + 0x9e3779b97f4a7c15*(n+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func u01(seed, n uint64) float64 {
	return float64(u64(seed, n)>>11) / (1 << 53)
}
