package cache

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/clock"
)

// newShardedCache builds a cache with an explicit stripe count so the
// cross-shard merge paths are exercised regardless of the adaptive default.
func newShardedCache(t *testing.T, pages, shards int) (*Cache, *clock.Fake) {
	t.Helper()
	clk := newFakeClock()
	c, err := New(int64(pages)*PageSize, WithClock(clk.Now), WithShards(shards))
	if err != nil {
		t.Fatal(err)
	}
	return c, clk
}

func TestShardCountDefaultsAndRounding(t *testing.T) {
	// Tiny budgets degenerate to one shard (seed single-lock semantics).
	c, _ := newTestCache(t, 1)
	if got := c.ShardCount(); got != 1 {
		t.Fatalf("1-page cache has %d shards, want 1", got)
	}
	// Large budgets stripe to at least 16 shards.
	big, err := New(512 * PageSize)
	if err != nil {
		t.Fatal(err)
	}
	if got := big.ShardCount(); got < 16 {
		t.Fatalf("512-page cache has %d shards, want >= 16", got)
	}
	// Explicit counts round up to a power of two.
	c3, err := New(PageSize, WithShards(3))
	if err != nil {
		t.Fatal(err)
	}
	if got := c3.ShardCount(); got != 4 {
		t.Fatalf("WithShards(3) = %d shards, want 4", got)
	}
	for _, c := range []*Cache{c, big, c3} {
		n := c.ShardCount()
		if n&(n-1) != 0 {
			t.Fatalf("shard count %d not a power of two", n)
		}
	}
}

func TestShardedSetGetRoundTrip(t *testing.T) {
	c, _ := newShardedCache(t, 64, 8)
	for i := 0; i < 1000; i++ {
		key := fmt.Sprintf("key-%04d", i)
		if err := c.Set(key, []byte(key)); err != nil {
			t.Fatal(err)
		}
	}
	if c.Len() != 1000 {
		t.Fatalf("Len = %d, want 1000", c.Len())
	}
	for i := 0; i < 1000; i++ {
		key := fmt.Sprintf("key-%04d", i)
		got, err := c.Get(key)
		if err != nil {
			t.Fatalf("Get(%s): %v", key, err)
		}
		if string(got) != key {
			t.Fatalf("Get(%s) = %q", key, got)
		}
	}
	// Keys must actually spread over the stripes.
	spread := 0
	for _, ss := range c.Stats().Shards {
		if ss.Items > 0 {
			spread++
		}
	}
	if spread < 2 {
		t.Fatalf("items landed on %d shards, want several", spread)
	}
}

func TestShardedDumpClassGloballyMRUOrdered(t *testing.T) {
	c, _ := newShardedCache(t, 64, 8)
	for i := 0; i < 300; i++ {
		if err := c.Set(fmt.Sprintf("key-%04d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	// Touch a scattered subset so recency differs from insertion order.
	for i := 0; i < 300; i += 7 {
		if _, err := c.Get(fmt.Sprintf("key-%04d", i)); err != nil {
			t.Fatal(err)
		}
	}
	metas, err := c.DumpClass(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(metas) != 300 {
		t.Fatalf("dump has %d entries, want 300", len(metas))
	}
	// The fake clock is strictly increasing, so the merged order must be
	// strictly decreasing in timestamp — the single-list dump the Agent and
	// FuseCache expect.
	for i := 1; i < len(metas); i++ {
		if !metas[i].LastAccess.Before(metas[i-1].LastAccess) {
			t.Fatalf("merged dump out of MRU order at %d: %v !< %v",
				i, metas[i].LastAccess, metas[i-1].LastAccess)
		}
	}
	if metas[0].Key != "key-0294" { // last touched key is globally hottest
		t.Fatalf("head = %q, want key-0294", metas[0].Key)
	}
}

func TestShardedDumpAllMergesEveryClass(t *testing.T) {
	c, _ := newShardedCache(t, 64, 8)
	for i := 0; i < 50; i++ {
		if err := c.Set(fmt.Sprintf("small-%02d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	big := bytes.Repeat([]byte("x"), 3000)
	for i := 0; i < 20; i++ {
		if err := c.Set(fmt.Sprintf("big-%02d", i), big); err != nil {
			t.Fatal(err)
		}
	}
	all := c.DumpAll(nil)
	if len(all) != 2 {
		t.Fatalf("DumpAll returned %d classes, want 2", len(all))
	}
	total := 0
	for _, metas := range all {
		total += len(metas)
		for i := 1; i < len(metas); i++ {
			if metas[i].LastAccess.After(metas[i-1].LastAccess) {
				t.Fatalf("class %d dump out of order at %d", metas[i].ClassID, i)
			}
		}
	}
	if total != 70 {
		t.Fatalf("DumpAll total = %d, want 70", total)
	}
}

func TestShardedMedianTimestamp(t *testing.T) {
	c, _ := newShardedCache(t, 64, 4)
	for i := 0; i < 9; i++ {
		if err := c.Set(fmt.Sprintf("key-%d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	median, ok := classMedian(t, c, 0)
	if !ok {
		t.Fatal("median missing for populated class")
	}
	metas, err := c.DumpClass(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The global median (index 4 of 9 from the hottest) must agree with the
	// merged dump, however items landed across shards.
	if want := metas[4].LastAccess.UnixNano(); median != want {
		t.Fatalf("median = %d, want merged MRU-position-4 timestamp %d", median, want)
	}
}

func TestShardedTopMetaGlobalHottest(t *testing.T) {
	c, _ := newShardedCache(t, 64, 8)
	for i := 0; i < 90; i++ {
		if err := c.Set(fmt.Sprintf("cold-%02d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		if err := c.Set(fmt.Sprintf("hot-%d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	kvs := topPairs(t, c, 0, 10, nil)
	if len(kvs) != 10 {
		t.Fatalf("top pairs returned %d, want 10", len(kvs))
	}
	for i, kv := range kvs {
		want := fmt.Sprintf("hot-%d", 9-i)
		if kv.Key != want {
			t.Fatalf("top[%d] = %q, want %q (global recency order)", i, kv.Key, want)
		}
	}
}

func TestShardedBatchImportFansOutPerShard(t *testing.T) {
	c, _ := newShardedCache(t, 64, 8)
	base := time.Unix(1_900_000_000, 0)
	pairs := make([]KV, 200)
	for i := range pairs {
		// Hottest-first slice, as phase 3 ships it.
		pairs[i] = KV{
			Key:        fmt.Sprintf("mig-%03d", i),
			Value:      []byte("v"),
			LastAccess: base.Add(-time.Duration(i) * time.Second),
		}
	}
	imported, err := c.BatchImport(pairs, true)
	if err != nil {
		t.Fatal(err)
	}
	if imported != 200 {
		t.Fatalf("imported %d, want 200", imported)
	}
	metas, err := c.DumpClass(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(metas) != 200 {
		t.Fatalf("dump has %d entries after import, want 200", len(metas))
	}
	for i, m := range metas {
		if m.Key != pairs[i].Key {
			t.Fatalf("merged dump[%d] = %q, want %q: import must preserve global MRU order", i, m.Key, pairs[i].Key)
		}
	}
}

func TestGetMultiHitsMissesAndPromotion(t *testing.T) {
	c, _ := newShardedCache(t, 64, 8)
	for i := 0; i < 20; i++ {
		if err := c.Set(fmt.Sprintf("key-%02d", i), []byte(fmt.Sprintf("val-%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	keys := [][]byte{[]byte("key-03"), []byte("missing-a"), []byte("key-11"), []byte("key-00"), []byte("missing-b")}
	got, arena := c.GetMultiInto(keys, nil, nil)
	hits := 0
	for _, it := range got {
		if it.Hit {
			hits++
		}
	}
	if hits != 3 || got[1].Hit || got[4].Hit {
		t.Fatalf("GetMultiInto returned %d hits (%+v), want 3", hits, got)
	}
	if string(got[0].ValueIn(arena)) != "val-03" || string(got[3].ValueIn(arena)) != "val-00" {
		t.Fatalf("GetMultiInto values wrong: %+v", got)
	}
	st := c.Stats()
	if st.Hits != 3 || st.Misses != 2 {
		t.Fatalf("stats after GetMultiInto = %d hits / %d misses, want 3/2", st.Hits, st.Misses)
	}
	// CAS tokens must match the single-key gets path.
	_, _, cas, err := getWithCAS(c, "key-11")
	if err != nil {
		t.Fatal(err)
	}
	if got[2].CAS != cas {
		t.Fatalf("GetMultiInto CAS = %d, GetWithCAS = %d", got[2].CAS, cas)
	}
	// The batched read must refresh recency like per-key Get does.
	metas, err := c.DumpClass(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	headSet := map[string]bool{"key-03": true, "key-11": true, "key-00": true}
	for i := 0; i < 3; i++ {
		if !headSet[metas[i].Key] {
			t.Fatalf("dump head %q not among GetMultiInto-promoted keys", metas[i].Key)
		}
	}
}

func TestSetBytesStoresAndExpires(t *testing.T) {
	c, clk := newShardedCache(t, 64, 8)
	deadline := clk.Now().Add(time.Minute)
	for i := 0; i < 32; i++ {
		if err := c.SetBytes([]byte(fmt.Sprintf("batch-%02d", i)), []byte("v"), 0, time.Time{}); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.SetBytes([]byte("expiring"), []byte("v"), 0, deadline); err != nil {
		t.Fatal(err)
	}
	if c.Len() != 33 {
		t.Fatalf("Len = %d, want 33", c.Len())
	}
	// A byte-keyed write must honor its expiry.
	clk.Set(deadline.Add(time.Second))
	if c.Contains("expiring") {
		t.Fatal("SetBytes item survived its expiry")
	}
	if !c.Contains("batch-00") {
		t.Fatal("unexpiring SetBytes item lost")
	}
	if err := c.SetBytes(nil, []byte("v"), 0, time.Time{}); !errors.Is(err, ErrEmptyKey) {
		t.Fatalf("err = %v, want ErrEmptyKey", err)
	}
}

func TestShardDistributionSumsToLen(t *testing.T) {
	c, _ := newShardedCache(t, 64, 8)
	for i := 0; i < 500; i++ {
		if err := c.Set(fmt.Sprintf("key-%04d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if len(st.Shards) != c.ShardCount() {
		t.Fatalf("Stats().Shards has %d entries, want %d", len(st.Shards), c.ShardCount())
	}
	items, sets := 0, uint64(0)
	for i, ss := range st.Shards {
		if ss.Shard != i {
			t.Fatalf("shard stat %d has index %d", i, ss.Shard)
		}
		items += ss.Items
		sets += ss.Sets
	}
	if items != c.Len() || items != st.Items || sets != st.Sets {
		t.Fatalf("per-shard sums items=%d sets=%d, want %d (Len %d)/%d", items, sets, st.Items, c.Len(), st.Sets)
	}
}

func TestShardedSlabStatsAggregate(t *testing.T) {
	c, _ := newShardedCache(t, 64, 8)
	for i := 0; i < 400; i++ {
		if err := c.Set(fmt.Sprintf("key-%04d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if len(st.Slabs) != 1 {
		t.Fatalf("slab stats cover %d classes, want 1", len(st.Slabs))
	}
	if st.Slabs[0].Items != 400 || st.Slabs[0].UsedChunks != 400 {
		t.Fatalf("aggregated slab items/used = %d/%d, want 400/400", st.Slabs[0].Items, st.Slabs[0].UsedChunks)
	}
	if st.Slabs[0].Pages != st.AssignedPages {
		t.Fatalf("class-0 pages %d != assigned pages %d (only one class populated)",
			st.Slabs[0].Pages, st.AssignedPages)
	}
	weights := c.SlabPageWeights()
	if w := weights[0]; w < 0.999 || w > 1.001 {
		t.Fatalf("single-class page weight = %v, want 1", w)
	}
}

func TestShardedFlushAllAndCrawl(t *testing.T) {
	c, clk := newShardedCache(t, 64, 8)
	deadline := clk.Now().Add(time.Minute)
	for i := 0; i < 100; i++ {
		if err := c.SetBytes([]byte(fmt.Sprintf("key-%03d", i)), []byte("v"), 0, deadline); err != nil {
			t.Fatal(err)
		}
	}
	clk.Set(deadline.Add(time.Second))
	if got := c.CrawlExpired(); got != 100 {
		t.Fatalf("crawler reclaimed %d, want 100", got)
	}
	for i := 0; i < 100; i++ {
		if err := c.Set(fmt.Sprintf("key-%03d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	pagesBefore := c.Stats().AssignedPages
	c.FlushAll()
	if c.Len() != 0 {
		t.Fatalf("Len = %d after sharded flush, want 0", c.Len())
	}
	if got := c.Stats().AssignedPages; got != pagesBefore {
		t.Fatalf("flush released pages: %d -> %d", pagesBefore, got)
	}
}
