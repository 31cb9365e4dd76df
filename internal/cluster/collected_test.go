//go:build go1.24

package cluster

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// TestRetiredNodeIsCollected: nothing — not the Master's listener lists,
// not the address book, not a parked connection — may keep a retired node's
// cache (a whole arena and index) reachable. runtime.AddCleanup needs Go
// 1.24, and is the only way to watch it go: Cache points back at itself
// through its shards, so a finalizer on it would never run.
func TestRetiredNodeIsCollected(t *testing.T) {
	c := startTest(t, 3)
	var collected atomic.Int64
	watched := make(map[string]bool)
	watch := func() {
		for _, name := range c.Members() {
			if watched[name] {
				continue
			}
			watched[name] = true
			cc, err := c.Node(name)
			if err != nil {
				t.Fatal(err)
			}
			runtime.AddCleanup(cc, func(n *atomic.Int64) { n.Add(1) }, &collected)
		}
	}
	watch()
	const cycles = 5
	scaleCycles(t, c, cycles, watch)

	// A retired node's connection handlers may still be unwinding: collect
	// until every retired cache is gone.
	deadline := time.Now().Add(5 * time.Second)
	for collected.Load() < cycles && time.Now().Before(deadline) {
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
	if got := collected.Load(); got != cycles {
		t.Fatalf("%d of %d retired caches were collected: something still holds the rest", got, cycles)
	}
}
