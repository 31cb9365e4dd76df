//go:build linux && !race

package cache

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"testing"
)

const mib = 1 << 20

// vmRSS reads the process's resident set size from /proc/self/status.
func vmRSS(t *testing.T) int64 {
	t.Helper()
	f, err := os.Open("/proc/self/status")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmRSS:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(rest, "kB")), 10, 64)
			if err != nil {
				t.Fatal(err)
			}
			return kb << 10
		}
	}
	t.Fatal("no VmRSS line in /proc/self/status")
	return 0
}

// settleRSS drops earlier tests' garbage and returns it to the OS, so the
// baseline does not shrink under the measurement.
func settleRSS(t *testing.T) int64 {
	t.Helper()
	settleArenas()
	debug.FreeOSMemory()
	return vmRSS(t)
}

// sparseCache assigns a page to each of 100 slab classes (a fine 1.05
// growth ladder) while writing one chunk per page. It returns the cache and
// the chunk bytes written.
func sparseCache(t *testing.T) (*Cache, int64) {
	t.Helper()
	c, err := New(128*PageSize, WithShards(16), WithGrowthFactor(1.05))
	if err != nil {
		t.Fatal(err)
	}
	var written int64
	for class, cs := range c.ChunkSizes()[:100] {
		key := "sparse-" + strconv.Itoa(class)
		if err := c.Set(key, make([]byte, cs-ItemOverhead-len(key))); err != nil {
			t.Fatal(err)
		}
		written += int64(cs)
	}
	return c, written
}

// TestArenaRSSFollowsTouchedChunks: a node's RSS tracks the chunks it has
// written, not the pages it has been assigned — including when a cache is
// rebuilt right after its predecessor was collected (a heap arena would
// land on freed spans the runtime must zero, making every assigned page
// resident) — and a dropped cache gives its memory back.
func TestArenaRSSFollowsTouchedChunks(t *testing.T) {
	base := settleRSS(t)
	arenas := liveArenas.Load()

	c, _ := sparseCache(t)
	runtime.KeepAlive(c)
	c = nil
	runtime.GC()
	waitArenasAtMost(t, arenas)

	c, written := sparseCache(t)
	st := c.Stats()
	growth := vmRSS(t) - base
	runtime.KeepAlive(c)
	if st.AssignedPages < 64 || written > 8*mib {
		t.Fatalf("setup: %d pages assigned, %d bytes written; want ≥ 64 pages and ≤ 8 MiB", st.AssignedPages, written)
	}
	t.Logf("rebuild: %d pages assigned (%d MiB), %d KiB written, touched %d KiB, RSS +%d KiB",
		st.AssignedPages, st.ArenaBytes/mib, written>>10, st.ArenaTouchedBytes>>10, growth>>10)
	if growth > written+16*mib {
		t.Errorf("RSS grew %d MiB for %d KiB written: assigned pages are resident", growth/mib, written>>10)
	}
	if d := growth - st.ArenaTouchedBytes; d > 4*mib || d < -4*mib {
		t.Errorf("RSS growth %d KiB is not within 4 MiB of ArenaTouchedBytes %d KiB", growth>>10, st.ArenaTouchedBytes>>10)
	}
	c = nil

	// Fill a 64 MiB cache completely, drop it, and collect: the mapping's
	// finalizer must hand the memory back.
	base = settleRSS(t)
	arenas = liveArenas.Load()
	full, err := New(64*PageSize, WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	val := make([]byte, 16000)
	for i := 0; full.Stats().AssignedPages < 64 || i < 8000; i++ {
		if err := full.Set("full-"+strconv.Itoa(i), val); err != nil {
			t.Fatal(err)
		}
	}
	filled := vmRSS(t) - base
	touched := full.Stats().ArenaTouchedBytes
	runtime.KeepAlive(full)
	full = nil
	if filled < 48*mib {
		t.Fatalf("filling 64 MiB grew RSS by only %d MiB (touched %d MiB)", filled/mib, touched/mib)
	}
	waitArenasAtMost(t, arenas)
	if after := vmRSS(t) - base; after > 8*mib {
		t.Errorf("RSS still %d MiB above base after the filled cache was collected", after/mib)
	}
}

// TestReclaimedPagesLeaveRSS: a page the arbiter steals from a full tenant
// is handed back to the kernel on release, so the node's RSS falls by at
// least the stolen pages — not only once another class reuses them.
func TestReclaimedPagesLeaveRSS(t *testing.T) {
	settleRSS(t)
	c, err := New(64*PageSize, WithShards(4), WithTenantPrefix(':'))
	if err != nil {
		t.Fatal(err)
	}
	a, err := c.RegisterTenant("a", TenantConfig{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.RegisterTenant("b", TenantConfig{})
	if err != nil {
		t.Fatal(err)
	}
	c.SetTenantQuota(b, 0)
	// Page-sized chunks: every assigned page is written end to end.
	for i := 0; i < 64; i++ {
		key := "a:" + strconv.Itoa(i)
		if err := c.Set(key, make([]byte, PageSize-ItemOverhead-len(key))); err != nil {
			t.Fatal(err)
		}
	}
	debug.FreeOSMemory()
	before := vmRSS(t)
	const steal = 16
	for i := 0; i < steal; i++ {
		if !c.StealPage(a, b) {
			t.Fatalf("steal %d refused", i)
		}
	}
	after := vmRSS(t)
	pages := c.TenantStats()[a].Pages
	runtime.KeepAlive(c)
	t.Logf("stole %d pages: RSS %d → %d MiB, tenant a holds %d pages", steal, before/mib, after/mib, pages)
	if pages != 64-steal {
		t.Fatalf("tenant a holds %d pages after %d steals, want %d", pages, steal, 64-steal)
	}
	// The stolen pages were written end to end; 256 KiB absorbs the heap
	// the steals themselves touch between the two readings.
	if before-after < steal*mib-256<<10 {
		t.Errorf("RSS fell %d KiB after stealing %d written pages, want about %d MiB", (before-after)>>10, steal, steal)
	}
}
