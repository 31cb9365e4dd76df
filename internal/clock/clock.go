// Package clock holds the time sources besides the machine's own: Fake,
// for tests and the deterministic harnesses, and NewMonotonic, for a node
// run with a skewed clock. DESIGN.md ("One clock per node") says who reads
// which.
package clock

import (
	"sync"
	"time"
)

// Fake is a time source that moves only by Advance and Set, plus a fixed
// tick per Now read; a non-zero tick keeps MRU stamps taken at one instant
// in the order of the reads. A Fake is safe for concurrent use.
type Fake struct {
	mu    sync.Mutex
	base  time.Time
	tick  time.Duration
	reads int64 // Now reads since the last Set
}

// NewFake returns a Fake at start that moves tick forward on every Now.
func NewFake(start time.Time, tick time.Duration) *Fake {
	return &Fake{base: start, tick: tick}
}

// Now counts one read and returns the base plus one tick per read.
func (f *Fake) Now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.reads++
	return f.base.Add(time.Duration(f.reads) * f.tick)
}

// Advance moves the clock forward by d. The ticks of earlier reads stay.
func (f *Fake) Advance(d time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.base = f.base.Add(d)
}

// Set moves the base to t and restarts the per-read ticks there. A t that
// is not after the base is ignored: the clock never runs back.
func (f *Fake) Set(t time.Time) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if t.After(f.base) {
		f.base = t
		f.reads = 0
	}
}

// NewMonotonic returns a time source offset from the wall time by offset
// and pinned to the monotonic clock: it anchors a wall-time base once and
// derives every reading from time.Since, so readings keep their order even
// when the wall clock is stepped (NTP slew, VM suspend, leap smearing).
func NewMonotonic(offset time.Duration) func() time.Time {
	base := time.Now()
	return func() time.Time {
		return base.Add(offset + time.Since(base))
	}
}
