package cache

import (
	"bytes"
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/hashring"
)

// pickAll routes every live item of the class to bucket 0 and returns the
// picks, hottest first.
func pickAll(t *testing.T, c *Cache, classID int) []Pick {
	t.Helper()
	lists, err := c.RoutePicks(classID, 1, func([]byte, uint64) int { return 0 })
	if err != nil {
		t.Fatal(err)
	}
	return lists[0]
}

// shippedKeys reads picks back and returns the keys that shipped, in
// order.
func shippedKeys(c *Cache, picks []Pick) []string {
	var keys []string
	for _, kv := range c.AppendPicks(nil, picks) {
		keys = append(keys, kv.Key)
	}
	return keys
}

// TestPicksMatchTopMetaWhenQuiescent is the selection oracle: on a
// quiescent four-shard cache with distinct stamps, expired items and MRU
// lists reordered by gets, the first take picks of a bucket read back as
// exactly TopMeta(class, take, bucket filter) — same keys, same order,
// same values and stamps.
func TestPicksMatchTopMetaWhenQuiescent(t *testing.T) {
	clk := newFakeClock()
	c, err := New(16*PageSize, WithClock(clk.Now), WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	sizes := []int{8, 200, 700}
	for i := 0; i < 3000; i++ {
		key := fmt.Sprintf("key-%05d", i)
		val := bytes.Repeat([]byte{byte(i)}, sizes[i%len(sizes)])
		if i%11 == 0 {
			err = c.SetExpiring(key, val, clk.Now().Add(time.Second))
		} else {
			err = c.Set(key, val)
		}
		if err != nil {
			t.Fatal(err)
		}
		if i%5 == 0 {
			_, _ = c.Get(fmt.Sprintf("key-%05d", i/3))
		}
	}
	clk.Advance(time.Minute)
	bucketOf := func(key []byte) int { return int(hashring.KeyHashBytes(key) % 3) } // bucket 2 is dropped
	for _, classID := range c.PopulatedClasses() {
		lists, err := c.RoutePicks(classID, 2, func(key []byte, h uint64) int {
			if h != hashring.KeyHashBytes(key) {
				t.Fatalf("route got hash %#x for %q", h, key)
			}
			if b := bucketOf(key); b < 2 {
				return b
			}
			return -1
		})
		if err != nil {
			t.Fatal(err)
		}
		for b, picks := range lists {
			for _, take := range []int{1, 17, len(picks) / 2, len(picks)} {
				want, err := c.TopMeta(classID, take, func(key string) bool { return bucketOf([]byte(key)) == b })
				if err != nil {
					t.Fatal(err)
				}
				got := c.AppendPicks(nil, picks[:min(take, len(picks))])
				if len(got) != len(want) {
					t.Fatalf("class %d bucket %d take %d: %d shipped, TopMeta %d", classID, b, take, len(got), len(want))
				}
				for i, m := range want {
					v, _ := c.Peek(m.Key)
					if got[i].Key != m.Key || !got[i].LastAccess.Equal(m.LastAccess) || !bytes.Equal(got[i].Value, v) {
						t.Fatalf("class %d bucket %d take %d #%d: shipped %q@%v, TopMeta %q@%v",
							classID, b, take, i, got[i].Key, got[i].LastAccess, m.Key, m.LastAccess)
					}
				}
			}
		}
	}
	if _, err := c.RoutePicks(len(c.ChunkSizes()), 1, func([]byte, uint64) int { return 0 }); err == nil {
		t.Fatal("want an error for an out-of-range class")
	}
}

// TestPicksGoneSinceSelectionDoNotShip: a pick deleted, expired (lazily
// or still resident) or evicted between the phases does not ship; the
// rest ship with their current values.
func TestPicksGoneSinceSelectionDoNotShip(t *testing.T) {
	c, clk := newTestCache(t, 1) // one page, one shard: evictions reuse chunks
	val := make([]byte, 40)
	for i := 0; i < 100; i++ {
		key := fmt.Sprintf("k%03d", i)
		var err error
		if i == 7 || i == 8 {
			err = c.SetExpiring(key, val, clk.Now().Add(time.Second))
		} else {
			err = c.Set(key, val)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	picks := pickAll(t, c, 0)
	if len(picks) != 100 {
		t.Fatalf("picked %d, want 100", len(picks))
	}
	if err := c.Delete("k003"); err != nil {
		t.Fatal(err)
	}
	clk.Advance(time.Minute)
	if _, err := c.Get("k007"); err == nil { // lazily reclaimed; k008 stays resident, expired
		t.Fatal("expired item served")
	}
	if err := c.Set("k050", []byte("fresh")); err != nil { // still picked: ships its new value
		t.Fatal(err)
	}
	// Fill the page so the LRU tail — k000, k001, ... minus the gone ones —
	// is evicted and its chunks reused.
	evicted := 0
	for i := 0; c.Stats().Evictions < 5; i++ {
		if err := c.Set(fmt.Sprintf("f%04d", i), val); err != nil { // class 0, as the picks
			t.Fatal(err)
		}
		evicted = int(c.Stats().Evictions)
	}
	var want []string
	for i := 99; i >= 0; i-- {
		key := fmt.Sprintf("k%03d", i)
		if key == "k008" {
			continue // expired, not yet reclaimed
		}
		if c.Contains(key) {
			want = append(want, key)
		}
	}
	kvs := c.AppendPicks(nil, picks)
	var got []string
	for _, kv := range kvs {
		got = append(got, kv.Key)
		if kv.Key == "k050" && string(kv.Value) != "fresh" {
			t.Fatalf("k050 shipped %q, want its current value", kv.Value)
		}
	}
	slices.Sort(got)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Fatalf("shipped %v\nwant %v", got, want)
	}
	if len(got) != 100-3-evicted {
		t.Fatalf("shipped %d of 100 picks, want all but the deleted, two expired and %d evicted", len(got), evicted)
	}
}

// TestPickOfReusedChunkDoesNotShip: a picked item is deleted and its chunk
// reused, in the same shard and class, by another key. The chunk is live
// and tagged for the pick's shard, so only the key hash tells the pick
// apart from the new item.
func TestPickOfReusedChunkDoesNotShip(t *testing.T) {
	c, _ := newTestCache(t, 1)
	val := []byte("value-bytes")
	for _, key := range []string{"a", "b", "c"} {
		if err := c.Set(key, val); err != nil {
			t.Fatal(err)
		}
	}
	picks := pickAll(t, c, 0)
	if err := c.Delete("b"); err != nil {
		t.Fatal(err)
	}
	if err := c.Set("intruder", val); err != nil { // pops b's chunk off the free list
		t.Fatal(err)
	}
	for _, p := range picks {
		if ch := c.pool.chunkAt(p.ref); string(chKey(ch)) == "intruder" && chTag(ch) == p.tag {
			got := shippedKeys(c, picks)
			if !slices.Equal(got, []string{"c", "a"}) {
				t.Fatalf("shipped %v, want [c a]: the picks that still hold their items, hottest first", got)
			}
			return
		}
	}
	t.Fatal("the new key did not reuse the deleted pick's chunk; the test sets up nothing")
}

// TestPickOnStolenPageIsSkipped: a donor tenant's picks, then a page steal
// that reclaims one of its pages and hands it to another tenant's class of
// a larger chunk size, which fills it. The stolen page's picks are skipped
// before anything of them is read: it is the arena's second-last page, and
// some of their chunk indexes, at the new chunk size, lie past the end of
// the arena. Every other pick ships. Run under -race by make race.
func TestPickOnStolenPageIsSkipped(t *testing.T) {
	c := newTenantCache(t, 8)
	donor, _ := c.RegisterTenant("donor", TenantConfig{ReservedPages: 1})
	recv, _ := c.RegisterTenant("recv", TenantConfig{})
	c.SetTenantQuota(donor, 2)
	c.SetTenantQuota(recv, 5)
	_, bigChunk, err := c.ClassForItem(len("bulk-00000"), 900)
	if err != nil {
		t.Fatal(err)
	}
	fillTenant(t, c, "bulk", 6*(PageSize/bigChunk), 900) // pages 0-5
	classID, chunkSize, err := c.ClassForItem(len("donor/k-00000"), 400)
	if err != nil {
		t.Fatal(err)
	}
	items := 2 * (PageSize / chunkSize) // pages 6 and 7, full
	fillTenant(t, c, "donor/k", items, 400)
	picks := pickAll(t, c, classID)
	if len(picks) != items {
		t.Fatalf("picked %d, want %d", len(picks), items)
	}
	if !c.StealPage(donor, recv) {
		t.Fatal("steal refused")
	}
	fillTenant(t, c, "recv/big", 1000, 900) // takes the freed page
	stolen, outside := 0, 0
	for _, p := range picks {
		if cs := int(c.pool.chunkSizes[p.ref.page()]); cs != chunkSize {
			stolen++
			if int(p.ref.page())*PageSize+(int(p.ref.chunk())+1)*cs > len(c.pool.mem) {
				outside++
			}
		}
	}
	if stolen == 0 || outside == 0 {
		t.Fatalf("%d picks on a stolen page, %d of them past the arena's end; the test sets up nothing", stolen, outside)
	}
	kvs := c.AppendPicks(nil, picks)
	for _, kv := range kvs {
		if v, ok := c.Peek(kv.Key); !ok || !bytes.Equal(v, kv.Value) {
			t.Fatalf("shipped %q, which the donor does not hold so", kv.Key)
		}
	}
	held := 0
	for i := 0; i < items; i++ {
		if c.Contains(fmt.Sprintf("donor/k-%05d", i)) {
			held++
		}
	}
	if len(kvs) != held || held > items-stolen {
		t.Fatalf("shipped %d picks; donor holds %d of %d, %d were on the stolen page", len(kvs), held, items, stolen)
	}
	c.checkShardInvariants(t)
}

// TestScanSkipsRewoundChunks: FlushAll rewinds every class's cursor but
// leaves the old chunks' bytes — live tags included — in place. The
// scanner reads nothing of them, picks taken before the flush no longer
// ship, and items set afterwards are scanned once each.
func TestScanSkipsRewoundChunks(t *testing.T) {
	clk := newFakeClock()
	c, err := New(8*PageSize, WithClock(clk.Now), WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		if err := c.Set(fmt.Sprintf("old-%03d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	picks := pickAll(t, c, 0)
	c.FlushAll()
	visited := 0
	c.scan(-1, func(*shard, itemRef, []byte) { visited++ })
	if visited != 0 {
		t.Fatalf("scanner visited %d chunks after FlushAll, want 0", visited)
	}
	if n := c.DropIf(func([]byte) bool { return true }); n != 0 {
		t.Fatalf("DropIf dropped %d after FlushAll", n)
	}
	for i := 0; i < 10; i++ {
		if err := c.Set(fmt.Sprintf("old-%03d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if got := shippedKeys(c, picks); len(got) != 0 {
		t.Fatalf("picks from before the flush shipped %v", got)
	}
	if got := len(pickAll(t, c, 0)); got != 10 {
		t.Fatalf("picked %d after re-setting 10 items, want 10", got)
	}
	c.checkShardInvariants(t)
}

// TestDropIfAndCrawlExpiredScan: release and expiry read through the
// scanner and keep every structure consistent.
func TestDropIfAndCrawlExpiredScan(t *testing.T) {
	clk := newFakeClock()
	c, err := New(8*PageSize, WithClock(clk.Now), WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		key := fmt.Sprintf("k%04d", i)
		if i%4 == 0 {
			err = c.SetExpiring(key, make([]byte, 50+i%300), clk.Now().Add(time.Second))
		} else {
			err = c.Set(key, make([]byte, 50+i%300))
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	clk.Advance(time.Minute)
	if n := c.CrawlExpired(); n != 250 {
		t.Fatalf("CrawlExpired reclaimed %d, want 250", n)
	}
	if n := c.DropIf(func(key []byte) bool { return key[len(key)-1] == '1' }); n != 100 {
		t.Fatalf("DropIf removed %d, want 100", n) // odd keys: none expired
	}
	if c.Len() != 1000-250-100 {
		t.Fatalf("Len = %d, want %d", c.Len(), 1000-250-100)
	}
	c.checkShardInvariants(t)
}

// TestSortHotFirstMatchesStableSort checks the radix sort against a stable
// comparison sort: random stamps across the whole int64 range (the
// zero-time sentinel included), stamps from one narrow clock window with
// many ties, and the short and single-valued edge cases.
func TestSortHotFirstMatchesStableSort(t *testing.T) {
	type item struct {
		stamp int64
		seq   int
	}
	rng := rand.New(rand.NewSource(3))
	for _, tc := range []struct {
		n    int
		draw func() int64
	}{
		{0, nil},
		{1, func() int64 { return 5 }},
		{100, func() int64 { return 7 }},
		{5000, func() int64 { return int64(rng.Uint64()) }},
		{5000, func() int64 { return 1_700_000_000_000_000_000 + rng.Int63n(2000) }},
		{300, func() int64 { return []int64{nanoNone, -1, 0, 1, math.MaxInt64}[rng.Intn(5)] }},
	} {
		a := make([]item, tc.n)
		for i := range a {
			a[i] = item{stamp: tc.draw(), seq: i}
		}
		want := slices.Clone(a)
		slices.SortStableFunc(want, func(x, y item) int { return cmp.Compare(y.stamp, x.stamp) })
		sortHotFirst(a, make([]item, len(a)), func(x *item) int64 { return x.stamp })
		if !slices.Equal(a, want) {
			t.Fatalf("n=%d: radix order differs from a stable sort hottest first", tc.n)
		}
	}
}

// TestRoutePicksBreaksTiesByChunk: with every stamp equal, picks come back
// in chunk address order, although the scan meets a later-registered
// tenant's pages — here the lower page IDs — after the default tenant's.
func TestRoutePicksBreaksTiesByChunk(t *testing.T) {
	now := time.Unix(1_700_000_000, 0)
	c, err := New(8*PageSize, WithClock(func() time.Time { return now }), WithTenantPrefix('/'))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.RegisterTenant("t", TenantConfig{}); err != nil {
		t.Fatal(err)
	}
	val := make([]byte, 400)
	for _, prefix := range []string{"t/", "d-"} { // tenant t takes pages first
		for i := 0; i < 3000; i++ {
			if err := c.Set(fmt.Sprintf("%s%04d", prefix, i), val); err != nil {
				t.Fatal(err)
			}
		}
	}
	classID, _, err := c.ClassForItem(len("d-0000"), len(val))
	if err != nil {
		t.Fatal(err)
	}
	var scanned []itemRef
	c.scan(classID, func(_ *shard, ref itemRef, _ []byte) { scanned = append(scanned, ref) })
	if slices.IsSorted(scanned) {
		t.Fatal("the scan met the chunks in address order; the test sets up nothing")
	}
	picks := pickAll(t, c, classID)
	if len(picks) != 6000 || !slices.IsSortedFunc(picks, func(a, b Pick) int { return cmp.Compare(a.ref, b.ref) }) {
		t.Fatalf("%d equal-stamp picks, want 6000 in chunk address order", len(picks))
	}
}
