package cache

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/metrics"
)

// stressDuration is how long the concurrent churn runs. One second is
// enough for the race detector to interleave every op pair; -short trims it.
func stressDuration(t *testing.T) time.Duration {
	if testing.Short() {
		return 200 * time.Millisecond
	}
	return time.Second
}

// TestStressConcurrentOps hammers one sharded cache with every public
// operation at once — Set, Get, Delete, DumpAll, BatchImport, FlushAll,
// GetMulti, SetBatch, CrawlExpired, Stats, and the migration reads
// RoutePicks, AppendPicks and DropIf — and then checks the engine's
// structural invariants. Run under -race (the Makefile's `race` target does).
func TestStressConcurrentOps(t *testing.T) {
	c, err := New(64*PageSize, WithShards(8))
	if err != nil {
		t.Fatal(err)
	}
	var (
		stop atomic.Bool
		wg   sync.WaitGroup
		ops  atomic.Uint64
	)
	run := func(fn func(i int)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				fn(i)
				ops.Add(1)
			}
		}()
	}

	val := []byte("stress-value")
	bigVal := make([]byte, 2000)
	// Writers over a bounded key space so readers and deleters collide.
	for g := 0; g < 4; g++ {
		g := g
		run(func(i int) {
			key := fmt.Sprintf("w%d-k%03d", g, i%400)
			v := val
			if i%5 == 0 {
				v = bigVal // second size class
			}
			if err := c.Set(key, v); err != nil && !errors.Is(err, ErrOutOfMemory) {
				t.Errorf("Set: %v", err)
			}
		})
	}
	// Readers.
	for g := 0; g < 2; g++ {
		run(func(i int) {
			key := fmt.Sprintf("w%d-k%03d", i%4, i%400)
			if _, err := c.Get(key); err != nil && !errors.Is(err, ErrNotFound) {
				t.Errorf("Get: %v", err)
			}
		})
	}
	// Deleter.
	run(func(i int) {
		_ = c.Delete(fmt.Sprintf("w%d-k%03d", i%4, (i*7)%400))
	})
	// Dumper: every snapshot must already satisfy the MRU-order contract.
	run(func(i int) {
		for _, metas := range c.DumpAll(nil) {
			for j := 1; j < len(metas); j++ {
				if metas[j].LastAccess.After(metas[j-1].LastAccess) {
					t.Errorf("concurrent DumpAll out of order at %d", j)
					return
				}
			}
		}
	})
	// Importer, emulating phase-3 migration traffic.
	run(func(i int) {
		now := time.Now()
		pairs := make([]KV, 32)
		for j := range pairs {
			pairs[j] = KV{
				Key:        fmt.Sprintf("imp-k%03d", (i*32+j)%300),
				Value:      val,
				LastAccess: now.Add(-time.Duration(j) * time.Millisecond),
			}
		}
		if _, err := c.BatchImport(pairs, true); err != nil {
			t.Errorf("BatchImport: %v", err)
		}
	})
	// Batched reads and writes.
	run(func(i int) {
		keys := make([]string, 16)
		for j := range keys {
			keys[j] = fmt.Sprintf("w%d-k%03d", j%4, (i+j)%400)
		}
		c.GetMulti(keys)
	})
	run(func(i int) {
		items := make([]SetItem, 16)
		for j := range items {
			items[j] = SetItem{Key: fmt.Sprintf("b-k%03d", (i*16+j)%300), Value: val}
		}
		if _, err := c.SetBatch(items); err != nil && !errors.Is(err, ErrOutOfMemory) {
			t.Errorf("SetBatch: %v", err)
		}
	})
	// Phase 1 then phase 3 of a migration, across FlushAll and the
	// writers: a pick ships only the item it picked, and a release drops
	// only what it is asked to.
	run(func(i int) {
		for _, classID := range c.PopulatedClasses() {
			lists, err := c.RoutePicks(classID, 1, func([]byte, uint64) int { return 0 })
			if err != nil {
				t.Errorf("RoutePicks: %v", err)
				return
			}
			for _, kv := range c.AppendPicks(nil, lists[0]) {
				if !bytes.Equal(kv.Value, val) && !bytes.Equal(kv.Value, bigVal) {
					t.Errorf("AppendPicks shipped %q with a value no writer stored", kv.Key)
				}
			}
		}
		c.DropIf(func(key []byte) bool { return string(key) == fmt.Sprintf("w0-k%03d", i%400) })
	})
	// Occasional whole-cache operations.
	run(func(i int) {
		if i%50 == 0 {
			c.FlushAll()
		}
		c.CrawlExpired()
		c.Stats()
		c.Len()
		time.Sleep(time.Millisecond)
	})

	time.Sleep(stressDuration(t))
	stop.Store(true)
	wg.Wait()
	t.Logf("stress: %d ops across %d shards", ops.Load(), c.ShardCount())

	// Quiesced invariants.
	st := c.Stats()
	if st.Items != c.Len() {
		t.Fatalf("Stats().Items = %d, Len() = %d", st.Items, c.Len())
	}
	dist := c.ShardDistribution()
	sum := 0
	for _, n := range dist {
		sum += n
	}
	if sum != c.Len() {
		t.Fatalf("ShardDistribution sums to %d, Len = %d", sum, c.Len())
	}
	if b := metrics.AnalyzeShards(dist); b.Shards != c.ShardCount() {
		t.Fatalf("AnalyzeShards saw %d shards, want %d", b.Shards, c.ShardCount())
	}
	c.checkShardInvariants(t)
	for _, metas := range c.DumpAll(nil) {
		for j := 1; j < len(metas); j++ {
			if metas[j].LastAccess.After(metas[j-1].LastAccess) {
				t.Fatalf("post-stress dump out of MRU order at %d", j)
			}
		}
	}
}

// TestStressNoLostItems writes disjoint per-goroutine key ranges with no
// eviction pressure while dumps, multi-gets and stats churn concurrently,
// then verifies every written item survived.
func TestStressNoLostItems(t *testing.T) {
	c, err := New(64*PageSize, WithShards(8))
	if err != nil {
		t.Fatal(err)
	}
	const (
		writers = 8
		perG    = 1000
	)
	var (
		churnWg   sync.WaitGroup
		writersWg sync.WaitGroup
		stop      atomic.Bool
	)
	// Background churn that must not drop committed writes.
	for g := 0; g < 2; g++ {
		churnWg.Add(1)
		go func() {
			defer churnWg.Done()
			for !stop.Load() {
				c.DumpAll(nil)
				c.GetMulti([]string{"g0-k0000", "g7-k0999", "nope"})
				c.Stats()
			}
		}()
	}
	for g := 0; g < writers; g++ {
		g := g
		writersWg.Add(1)
		go func() {
			defer writersWg.Done()
			for i := 0; i < perG; i++ {
				if err := c.Set(fmt.Sprintf("g%d-k%04d", g, i), []byte("v")); err != nil {
					t.Errorf("Set: %v", err)
					return
				}
			}
		}()
	}
	writersWg.Wait()
	stop.Store(true)
	churnWg.Wait()

	if c.Len() != writers*perG {
		t.Fatalf("Len = %d, want %d", c.Len(), writers*perG)
	}
	for g := 0; g < writers; g++ {
		for i := 0; i < perG; i++ {
			key := fmt.Sprintf("g%d-k%04d", g, i)
			if !c.Contains(key) {
				t.Fatalf("lost item %s", key)
			}
		}
	}
	c.checkShardInvariants(t)
}

// checkShardInvariants verifies, per shard, that the key index and the
// per-class MRU lists agree exactly: same membership, consistent sizes, and
// intact list links; and, per class page set, that every chunk it has
// handed out since its last rewind is resident or on a shard's free list.
func (c *Cache) checkShardInvariants(t *testing.T) {
	t.Helper()
	for si, sh := range c.shards {
		sh.mu.Lock()
		listed := 0
		for slot, sl := range sh.slabs {
			if sl == nil {
				continue
			}
			// Slab slots are (tenant, class) pairs: slot = tid*classes+class.
			tid := uint16(slot / len(c.classes))
			classID := slot % len(c.classes)
			if !sl.list.validate(&c.pool) {
				sh.mu.Unlock()
				t.Fatalf("shard %d slot %d: corrupt MRU list", si, slot)
			}
			sl.list.each(&c.pool, func(ref itemRef, ch []byte) bool {
				listed++
				key := chKey(ch)
				got, _, ok := sh.idx.lookup(shardHashT(tid, key), tid, key, &c.pool)
				if !ok || got != ref {
					t.Errorf("shard %d: listed item %q not in index", si, key)
				}
				if chClass(ch) != classID {
					t.Errorf("shard %d: item %q in class %d list has header class %d", si, key, classID, chClass(ch))
				}
				if chTenant(ch) != tid {
					t.Errorf("shard %d: item %q in tenant-%d slot has header tenant %d", si, key, tid, chTenant(ch))
				}
				if chTag(ch) != sh.tag {
					t.Errorf("shard %d: listed item %q carries live tag %d, want %d", si, key, chTag(ch), sh.tag)
				}
				return true
			})
			for ref := sl.freeHead; ref != nilRef; ref = chNext(c.pool.chunkAt(ref)) {
				if tag := chTag(c.pool.chunkAt(ref)); tag != 0 {
					t.Errorf("shard %d slot %d: free chunk carries live tag %d", si, slot, tag)
				}
			}
			if sl.used != sl.list.size {
				t.Errorf("shard %d class %d: used=%d list=%d", si, classID, sl.used, sl.list.size)
			}
		}
		if listed != sh.idx.count {
			t.Errorf("shard %d: %d listed items, index has %d", si, listed, sh.idx.count)
		}
		sh.mu.Unlock()
	}
	// The page-order scanner reads exactly the listed items.
	scanned := make([]int, len(c.shards))
	c.scan(-1, func(sh *shard, _ itemRef, _ []byte) { scanned[sh.tag-1]++ })
	for si, sh := range c.shards {
		sh.mu.Lock()
		if scanned[si] != sh.idx.count {
			t.Errorf("shard %d: scanner visited %d items, index has %d", si, scanned[si], sh.idx.count)
		}
		sh.mu.Unlock()
	}
	for slot, cp := range *c.pageSets.Load() {
		held := 0
		for _, sh := range c.shards {
			sh.mu.Lock()
			if slot < len(sh.slabs) && sh.slabs[slot] != nil {
				sl := sh.slabs[slot]
				held += sl.used
				for ref := sl.freeHead; ref != nilRef; ref = chNext(c.pool.chunkAt(ref)) {
					held++
				}
			}
			sh.mu.Unlock()
		}
		cp.mu.Lock()
		next := cp.next
		cp.mu.Unlock()
		if held != next {
			t.Errorf("slot %d: shards hold %d chunks, page set handed out %d", slot, held, next)
		}
	}
	if t.Failed() {
		t.FailNow()
	}
}

// TestReclaimUnderLoad runs page steals back and forth between two full
// tenants while writers in every shard keep setting and reading both: a
// drained page's chunks must never be handed out twice, so every read
// returns the value last written under its key or misses, and the shard
// and page-set invariants hold afterwards.
func TestReclaimUnderLoad(t *testing.T) {
	c, err := New(24*PageSize, WithShards(4), WithTenantPrefix(':'))
	if err != nil {
		t.Fatal(err)
	}
	a, err := c.RegisterTenant("a", TenantConfig{ReservedPages: 2})
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.RegisterTenant("b", TenantConfig{ReservedPages: 2})
	if err != nil {
		t.Fatal(err)
	}
	c.SetTenantQuota(a, 12)
	c.SetTenantQuota(b, 12)
	// value derives every byte from the key, so a read that lands on a
	// chunk rewritten under another key shows.
	value := func(key string, n int) []byte {
		v := make([]byte, n)
		for i := range v {
			v[i] = key[i%len(key)] ^ byte(i)
		}
		return v
	}
	var (
		stop   atomic.Bool
		wg     sync.WaitGroup
		steals atomic.Int64
	)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				tenant := "a"
				if i%2 == 1 {
					tenant = "b"
				}
				key := fmt.Sprintf("%s:g%d-%05d", tenant, g, i%20000)
				size := 40 + (i*7919)%3000
				if err := c.Set(key, value(key, size)); err != nil && !errors.Is(err, ErrOutOfMemory) {
					t.Errorf("set %s: %v", key, err)
					return
				}
				if v, err := c.Get(key); err == nil && string(v) != string(value(key, len(v))) {
					t.Errorf("get %s: value of another key", key)
					return
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			if c.StealPage(a, b) {
				steals.Add(1)
			}
			if c.StealPage(b, a) {
				steals.Add(1)
			}
		}
	}()
	// A migration sender reading its picks back while pages change hands:
	// a shipped pair is always the item its key names, never a chunk a
	// steal handed to another class or key.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			for _, classID := range c.PopulatedClasses() {
				lists, err := c.RoutePicks(classID, 1, func([]byte, uint64) int { return 0 })
				if err != nil {
					t.Errorf("RoutePicks: %v", err)
					return
				}
				for _, kv := range c.AppendPicks(nil, lists[0]) {
					if string(kv.Value) != string(value(kv.Key, len(kv.Value))) {
						t.Errorf("pick of %s shipped another key's value", kv.Key)
						return
					}
				}
			}
		}
	}()
	time.Sleep(stressDuration(t))
	stop.Store(true)
	wg.Wait()
	var reclaimed uint64
	for _, st := range c.TenantStats() {
		reclaimed += st.PagesStolen
		if st.ID != 0 && st.Pages < st.Reserved {
			t.Errorf("tenant %q holds %d pages, below its %d reserved", st.Name, st.Pages, st.Reserved)
		}
	}
	t.Logf("%d quota moves, %d pages reclaimed", steals.Load(), reclaimed)
	if reclaimed == 0 {
		t.Fatal("no page was reclaimed")
	}
	c.checkShardInvariants(t)
}
