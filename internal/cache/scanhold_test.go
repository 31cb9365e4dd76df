//go:build !race

package cache

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestScanPageHoldUnderOneMillisecond is the scanner's lock-hold probe: on
// a 16-shard node holding 550 k small items — the smallest class, whose
// pages hold the most chunks — RouteStamps, DropIf and CrawlExpired each
// hold the shard locks for at most 1 ms at a time, where a list walk held
// one for a whole class (39.7 ms measured on a 1.4 M-item node). The OS
// can stretch a hold by descheduling the scanner, which says nothing
// about the scanner, so each export gets up to ten tries and the best one
// counts. A last run of each beside a GetInto loop logs the latency a
// reader sees meanwhile. Skipped under -short, and under -race, whose
// instrumentation multiplies the hold.
func TestScanPageHoldUnderOneMillisecond(t *testing.T) {
	if testing.Short() {
		t.Skip("fills a 550 k-item node")
	}
	const items = 550_000
	clk := newFakeClock()
	c, err := New(64*PageSize, WithClock(clk.Now), WithShards(16))
	if err != nil {
		t.Fatal(err)
	}
	val := make([]byte, 30) // 8-byte key + 30 + header: the 96-byte class
	for i := 0; i < items; i++ {
		key := fmt.Sprintf("k%07d", i)
		if i%50 == 0 {
			err = c.SetBytes([]byte(key), val, 0, clk.Now().Add(time.Second))
		} else {
			err = c.Set(key, val)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if st := c.Stats(); st.Items != items || st.Evictions != 0 {
		t.Fatalf("node holds %d items after %d evictions, want %d", st.Items, st.Evictions, items)
	}
	clk.Advance(time.Minute)

	const bound = time.Millisecond
	for _, op := range []struct {
		name string
		run  func()
	}{
		{"RouteStamps", func() {
			lists, err := c.RouteStamps(0, 2, func(key []byte) int { return int(key[len(key)-1] & 1) })
			if err != nil {
				t.Fatal(err)
			}
			if got := len(lists[0]) + len(lists[1]); got != items-items/50 {
				t.Errorf("RouteStamps routed %d items, want every live one, %d", got, items-items/50)
			}
		}},
		{"DropIf", func() {
			// Keys ending in 7 are never ones that expired (multiples of 50).
			if n := c.DropIf(func(key []byte) bool { return key[len(key)-1] == '7' }); n != items/10 && n != 0 {
				t.Errorf("DropIf dropped %d, want %d", n, items/10)
			}
		}},
		{"CrawlExpired", func() {
			// The reader reclaims some expired items itself, so count
			// what is left rather than what the crawl took.
			c.CrawlExpired()
			if got, want := c.Len(), items-items/10-items/50; got != want {
				t.Errorf("%d items left after the crawl, want %d", got, want)
			}
		}},
	} {
		best := time.Duration(1 << 62)
		for try := 0; try < 10 && best > bound; try++ {
			c.scanMaxHold.Store(0)
			op.run()
			best = min(best, time.Duration(c.scanMaxHold.Load()))
		}
		getMax := readWhile(c, items, op.run)
		t.Logf("%s: max lock hold %v, max concurrent GetInto %v", op.name, best, getMax)
		if best > bound {
			t.Errorf("%s holds the shard locks for %v at a time, want <= %v", op.name, best, bound)
		}
	}
}

// readWhile runs a GetInto loop over random resident keys while run runs,
// and returns the longest GetInto it saw.
func readWhile(c *Cache, items int, run func()) time.Duration {
	var (
		stop   atomic.Bool
		wg     sync.WaitGroup
		maxGet time.Duration
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		buf := make([]byte, 0, 64)
		key := make([]byte, 0, 16)
		x := uint64(1)
		for !stop.Load() {
			x = x*6364136223846793005 + 1442695040888963407
			key = fmt.Appendf(key[:0], "k%07d", x>>33%uint64(items))
			start := time.Now()
			buf, _, _, _ = c.GetInto(key, buf[:0])
			maxGet = max(maxGet, time.Since(start))
		}
	}()
	run()
	stop.Store(true)
	wg.Wait()
	return maxGet
}
