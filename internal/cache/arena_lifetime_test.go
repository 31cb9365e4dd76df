package cache

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"
	"time"
)

// settleArenas collects until the live-mapping count stops falling, so a
// later wait is not satisfied by some earlier test's garbage cache.
func settleArenas() int64 {
	n := liveArenas.Load()
	for stable := 0; stable < 3; {
		runtime.GC()
		runtime.Gosched()
		if m := liveArenas.Load(); m < n {
			n, stable = m, 0
		} else {
			stable++
		}
	}
	return n
}

// waitArenasAtMost collects until the finalizers have released mappings
// down to want. No sleep: each round is one full GC plus a yield to the
// finalizer goroutine.
func waitArenasAtMost(t *testing.T, want int64) {
	t.Helper()
	for i := 0; i < 1000; i++ {
		runtime.GC()
		runtime.Gosched()
		if liveArenas.Load() <= want {
			return
		}
	}
	t.Fatalf("arena mappings still live: %d, want ≤ %d", liveArenas.Load(), want)
}

// lifetimeValue is key i's deterministic value; sizes span several slab
// classes so the reads below cross pages and shards.
func lifetimeValue(i int) []byte {
	v := make([]byte, 20+(i%7)*150)
	for j := range v {
		v[j] = byte(i*31 + j)
	}
	return v
}

func lifetimeKey(i int) string { return fmt.Sprintf("life-%04d", i) }

// aliasCheck compares one retained read result against what was stored.
type aliasCheck struct {
	api string
	ok  func() bool
}

// readEveryAPI fills a cache, keeps what every copy-out read API returned,
// and lets the cache become unreachable on return. Nothing in the returned
// closures may reference the cache.
func readEveryAPI(t *testing.T) []aliasCheck {
	t.Helper()
	const n = 400
	c, err := New(64*PageSize, WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := c.SetBytes([]byte(lifetimeKey(i)), lifetimeValue(i), uint32(i), time.Time{}); err != nil {
			t.Fatal(err)
		}
	}
	var checks []aliasCheck
	add := func(api string, ok func() bool) { checks = append(checks, aliasCheck{api, ok}) }
	want := func(i int) []byte { return lifetimeValue(i) }

	for i := 0; i < n; i += 37 {
		i := i
		key := lifetimeKey(i)
		v, err := c.Get(key)
		if err != nil {
			t.Fatal(err)
		}
		add("Get", func() bool { return bytes.Equal(v, want(i)) })
		g, flags, _, err := getWithCAS(c, key)
		if err != nil {
			t.Fatal(err)
		}
		add("GetWithCAS", func() bool { return bytes.Equal(g, want(i)) && flags == uint32(i) })
		p, _ := c.Peek(key)
		add("Peek", func() bool { return bytes.Equal(p, want(i)) })
		pf, pflags, _, _ := c.PeekFull(key)
		add("PeekFull", func() bool { return bytes.Equal(pf, want(i)) && pflags == uint32(i) })
		gi, _, _, _ := c.GetInto([]byte(key), nil)
		add("GetInto", func() bool { return bytes.Equal(gi, want(i)) })
	}

	keys := []string{lifetimeKey(1), lifetimeKey(2), lifetimeKey(300)}
	items, arena := c.GetMultiInto([][]byte{[]byte(keys[0]), []byte(keys[1]), []byte(keys[2])}, nil, nil)
	add("GetMultiInto", func() bool {
		return bytes.Equal(items[0].ValueIn(arena), want(1)) && bytes.Equal(items[1].ValueIn(arena), want(2)) &&
			bytes.Equal(items[2].ValueIn(arena), want(300)) && items[2].Flags == 300
	})

	// Metadata copies: every key must be one the test stored.
	stored := make(map[string]int, n)
	for i := 0; i < n; i++ {
		stored[lifetimeKey(i)] = i
	}
	metasOK := func(ms []ItemMeta) bool {
		for _, m := range ms {
			i, ok := stored[m.Key]
			if !ok || m.ValueSize != len(want(i)) {
				return false
			}
		}
		return len(ms) > 0
	}
	classes := c.PopulatedClasses()
	if len(classes) < 3 {
		t.Fatalf("fill populated %d classes, want several", len(classes))
	}
	top, _ := c.TopMeta(classes[0], 50, nil)
	add("TopMeta", func() bool { return metasOK(top) })
	dump, _ := c.DumpClass(classes[1], nil)
	add("DumpClass", func() bool { return metasOK(dump) })
	all := c.DumpAll(nil)
	add("DumpAll", func() bool {
		for _, ms := range all {
			if !metasOK(ms) {
				return false
			}
		}
		return len(all) == len(classes)
	})
	runs, _ := c.ClassOrderByShard(classes[2])
	add("ClassOrderByShard", func() bool {
		for _, r := range runs {
			if len(r) > 0 && !metasOK(r) {
				return false
			}
		}
		return true
	})
	picks, _ := c.RoutePicks(classes[0], 1, func([]byte, uint64) int { return 0 })
	pairs := c.AppendPicks(nil, picks[0][:len(top)])
	add("AppendPicks", func() bool {
		for _, p := range pairs {
			if !bytes.Equal(p.Value, want(stored[p.Key])) || p.Flags != uint32(stored[p.Key]) {
				return false
			}
		}
		return len(pairs) == len(top)
	})
	var snap bytes.Buffer
	if _, err := c.WriteSnapshot(&snap); err != nil {
		t.Fatal(err)
	}
	add("WriteSnapshot", func() bool {
		r, err := New(64*PageSize, WithShards(4))
		if err != nil {
			return false
		}
		got, err := r.RestoreSnapshot(bytes.NewReader(snap.Bytes()))
		if err != nil || got != n {
			return false
		}
		v, err := r.Get(lifetimeKey(123))
		return err == nil && bytes.Equal(v, want(123))
	})
	return checks
}

// TestArenaReadsOutliveCache pins the arena lifetime rule: every read API
// copies out, so its results stay valid after the cache is collected and
// its mapping released. A result aliasing the arena would fault here.
func TestArenaReadsOutliveCache(t *testing.T) {
	base := settleArenas()
	checks := readEveryAPI(t)
	waitArenasAtMost(t, base)
	for _, ck := range checks {
		if !ck.ok() {
			t.Errorf("%s result changed after its cache was collected", ck.api)
		}
	}
}

// TestArenaTouchedBytes pins the RSS-facing counter: chunks the bump
// cursors have handed out × chunk size — unchanged by FlushAll (the
// memory stays written) and by overwrites, and never above the budget.
func TestArenaTouchedBytes(t *testing.T) {
	c, err := New(32*PageSize, WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Stats().ArenaTouchedBytes; got != 0 {
		t.Fatalf("empty cache touched %d bytes", got)
	}
	var written int64
	for i := 0; i < 300; i++ {
		v := lifetimeValue(i)
		if err := c.Set(lifetimeKey(i), v); err != nil {
			t.Fatal(err)
		}
		_, cs, err := c.classForItem(len(lifetimeKey(i)), len(v))
		if err != nil {
			t.Fatal(err)
		}
		written += int64(cs)
	}
	st := c.Stats()
	if st.ArenaTouchedBytes != written {
		t.Fatalf("ArenaTouchedBytes = %d, want %d (one chunk per stored item)", st.ArenaTouchedBytes, written)
	}
	if st.ArenaTouchedBytes >= st.ArenaBytes {
		t.Fatalf("touched %d ≥ assigned %d: the counter should follow chunks, not pages", st.ArenaTouchedBytes, st.ArenaBytes)
	}
	c.FlushAll()
	for i := 0; i < 100; i++ {
		if err := c.Set(lifetimeKey(i), lifetimeValue(i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.Stats().ArenaTouchedBytes; got != written {
		t.Fatalf("after FlushAll + partial refill touched = %d, want the high-water %d", got, written)
	}
}
