package cache

import (
	"errors"
	"testing"
	"time"

	"repro/internal/clock"
)

// expiryCache builds a cache plus a clock whose time the test controls.
func expiryCache(t *testing.T) (*Cache, *clock.Fake) {
	t.Helper()
	return newTestCache(t, 2)
}

// getWithCAS reads key through GetInto, as memcached's gets: a copy of the
// value, its flags and CAS token, or ErrNotFound.
func getWithCAS(c *Cache, key string) (value []byte, flags uint32, casToken uint64, err error) {
	value, flags, casToken, hit := c.GetInto([]byte(key), nil)
	if !hit {
		return nil, 0, 0, ErrNotFound
	}
	return value, flags, casToken, nil
}

func TestSetExpiringAndLazyExpiry(t *testing.T) {
	c, clk := expiryCache(t)
	deadline := clk.Now().Add(time.Minute)
	if err := c.SetBytes([]byte("k"), []byte("v"), 0, deadline); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get("k"); err != nil {
		t.Fatal("item expired early")
	}
	clk.Set(deadline.Add(time.Second))
	if _, err := c.Get("k"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound after expiry", err)
	}
	if n := c.Stats().Expirations; n != 1 {
		t.Fatalf("expirations = %d, want 1", n)
	}
	// The chunk was reclaimed.
	if c.Len() != 0 {
		t.Fatalf("Len = %d after expiry", c.Len())
	}
}

func TestExpiredItemInvisibleToPeekAndContains(t *testing.T) {
	c, clk := expiryCache(t)
	deadline := clk.Now().Add(time.Second)
	if err := c.SetBytes([]byte("k"), []byte("v"), 0, deadline); err != nil {
		t.Fatal(err)
	}
	clk.Set(deadline.Add(time.Hour))
	if _, ok := c.Peek("k"); ok {
		t.Fatal("Peek saw an expired item")
	}
	if c.Contains("k") {
		t.Fatal("Contains saw an expired item")
	}
}

func TestExpiredItemsExcludedFromDumpAndFetch(t *testing.T) {
	c, clk := expiryCache(t)
	if err := c.Set("live", []byte("v")); err != nil {
		t.Fatal(err)
	}
	deadline := clk.Now().Add(time.Second)
	if err := c.SetBytes([]byte("dead"), []byte("v"), 0, deadline); err != nil {
		t.Fatal(err)
	}
	clk.Set(deadline.Add(time.Minute))

	metas, err := c.DumpClass(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(metas) != 1 || metas[0].Key != "live" {
		t.Fatalf("dump = %v, want only live", metas)
	}
	kvs := topPairs(t, c, 0, 10, nil)
	if len(kvs) != 1 || kvs[0].Key != "live" {
		t.Fatalf("fetch = %v, want only live", kvs)
	}
}

func TestPlainSetClearsExpiry(t *testing.T) {
	c, clk := expiryCache(t)
	deadline := clk.Now().Add(time.Second)
	if err := c.SetBytes([]byte("k"), []byte("v1"), 0, deadline); err != nil {
		t.Fatal(err)
	}
	if err := c.Set("k", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	clk.Set(deadline.Add(time.Hour))
	if _, err := c.Get("k"); err != nil {
		t.Fatal("plain Set should have cleared the expiry")
	}
}

func TestCrawlExpired(t *testing.T) {
	c, clk := expiryCache(t)
	deadline := clk.Now().Add(time.Second)
	for _, k := range []string{"a", "b", "c"} {
		if err := c.SetBytes([]byte(k), []byte("v"), 0, deadline); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Set("keep", []byte("v")); err != nil {
		t.Fatal(err)
	}
	clk.Set(deadline.Add(time.Minute))
	if got := c.CrawlExpired(); got != 3 {
		t.Fatalf("crawler reclaimed %d, want 3", got)
	}
	if c.Len() != 1 || !c.Contains("keep") {
		t.Fatalf("Len = %d after crawl", c.Len())
	}
	if got := c.CrawlExpired(); got != 0 {
		t.Fatalf("second crawl reclaimed %d, want 0", got)
	}
}

func TestAdd(t *testing.T) {
	c, _ := expiryCache(t)
	if err := c.Add([]byte("k"), []byte("v1"), 0, time.Time{}); err != nil {
		t.Fatal(err)
	}
	if err := c.Add([]byte("k"), []byte("v2"), 0, time.Time{}); !errors.Is(err, ErrNotStored) {
		t.Fatalf("err = %v, want ErrNotStored for existing key", err)
	}
	got, _ := c.Peek("k")
	if string(got) != "v1" {
		t.Fatalf("value = %q, add overwrote", got)
	}
}

func TestAddSucceedsAfterExpiry(t *testing.T) {
	c, clk := expiryCache(t)
	deadline := clk.Now().Add(time.Second)
	if err := c.SetBytes([]byte("k"), []byte("old"), 0, deadline); err != nil {
		t.Fatal(err)
	}
	clk.Set(deadline.Add(time.Minute))
	if err := c.Add([]byte("k"), []byte("new"), 0, time.Time{}); err != nil {
		t.Fatalf("add after expiry failed: %v", err)
	}
}

func TestReplace(t *testing.T) {
	c, _ := expiryCache(t)
	if err := c.Replace([]byte("k"), []byte("v"), 0, time.Time{}); !errors.Is(err, ErrNotStored) {
		t.Fatalf("err = %v, want ErrNotStored for missing key", err)
	}
	if err := c.Set("k", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := c.Replace([]byte("k"), []byte("v2"), 0, time.Time{}); err != nil {
		t.Fatal(err)
	}
	got, _ := c.Peek("k")
	if string(got) != "v2" {
		t.Fatalf("value = %q", got)
	}
}

func TestGetWithCASAndCompareAndSwap(t *testing.T) {
	c, _ := expiryCache(t)
	if err := c.Set("k", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	_, _, token, err := getWithCAS(c, "k")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.CompareAndSwap([]byte("k"), []byte("v2"), 0, time.Time{}, token); err != nil {
		t.Fatal(err)
	}
	// The old token is now stale.
	if err := c.CompareAndSwap([]byte("k"), []byte("v3"), 0, time.Time{}, token); !errors.Is(err, ErrExists) {
		t.Fatalf("err = %v, want ErrExists for stale token", err)
	}
	got, _ := c.Peek("k")
	if string(got) != "v2" {
		t.Fatalf("value = %q", got)
	}
	if err := c.CompareAndSwap([]byte("missing"), []byte("v"), 0, time.Time{}, 1); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
}

func TestCASTokenChangesOnEverySet(t *testing.T) {
	c, _ := expiryCache(t)
	if err := c.Set("k", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	_, _, t1, err := getWithCAS(c, "k")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Set("k", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	_, _, t2, err := getWithCAS(c, "k")
	if err != nil {
		t.Fatal(err)
	}
	if t1 == t2 {
		t.Fatal("CAS token did not change across sets")
	}
}

func TestGetWithCASMiss(t *testing.T) {
	c, _ := expiryCache(t)
	if _, _, _, err := getWithCAS(c, "missing"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
	if st := c.Stats(); st.Misses != 1 {
		t.Fatalf("misses = %d, want 1", st.Misses)
	}
}

func TestAppendPrepend(t *testing.T) {
	c, _ := expiryCache(t)
	if err := c.Append([]byte("k"), []byte("x")); !errors.Is(err, ErrNotStored) {
		t.Fatalf("append to missing: err = %v, want ErrNotStored", err)
	}
	if err := c.Set("k", []byte("mid")); err != nil {
		t.Fatal(err)
	}
	if err := c.Append([]byte("k"), []byte("-end")); err != nil {
		t.Fatal(err)
	}
	if err := c.Prepend([]byte("k"), []byte("start-")); err != nil {
		t.Fatal(err)
	}
	got, _ := c.Peek("k")
	if string(got) != "start-mid-end" {
		t.Fatalf("value = %q, want start-mid-end", got)
	}
}

func TestAppendPreservesExpiry(t *testing.T) {
	c, clk := expiryCache(t)
	deadline := clk.Now().Add(time.Minute)
	if err := c.SetBytes([]byte("k"), []byte("a"), 0, deadline); err != nil {
		t.Fatal(err)
	}
	if err := c.Append([]byte("k"), []byte("b")); err != nil {
		t.Fatal(err)
	}
	clk.Set(deadline.Add(time.Second))
	if c.Contains("k") {
		t.Fatal("append dropped the expiry")
	}
}

func TestIncrDecr(t *testing.T) {
	c, _ := expiryCache(t)
	if err := c.Set("n", []byte("10")); err != nil {
		t.Fatal(err)
	}
	got, err := c.Incr([]byte("n"), 5)
	if err != nil || got != 15 {
		t.Fatalf("Incr = %d, %v; want 15", got, err)
	}
	got, err = c.Decr([]byte("n"), 20)
	if err != nil || got != 0 {
		t.Fatalf("Decr = %d, %v; want clamp at 0", got, err)
	}
	v, _ := c.Peek("n")
	if string(v) != "0" {
		t.Fatalf("stored value = %q", v)
	}
}

func TestIncrErrors(t *testing.T) {
	c, _ := expiryCache(t)
	if _, err := c.Incr([]byte("missing"), 1); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
	if err := c.Set("s", []byte("not-a-number")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Incr([]byte("s"), 1); !errors.Is(err, ErrNotNumber) {
		t.Fatalf("err = %v, want ErrNotNumber", err)
	}
}

func TestIncrWraps(t *testing.T) {
	c, _ := expiryCache(t)
	if err := c.Set("n", []byte("18446744073709551615")); err != nil { // max uint64
		t.Fatal(err)
	}
	got, err := c.Incr([]byte("n"), 1)
	if err != nil || got != 0 {
		t.Fatalf("Incr at max = %d, %v; memcached wraps to 0", got, err)
	}
}

func TestTouchExpiry(t *testing.T) {
	c, clk := expiryCache(t)
	d1 := clk.Now().Add(time.Second)
	if err := c.SetBytes([]byte("k"), []byte("v"), 0, d1); err != nil {
		t.Fatal(err)
	}
	d2 := d1.Add(time.Hour)
	if err := c.Touch([]byte("k"), d2); err != nil {
		t.Fatal(err)
	}
	clk.Set(d1.Add(time.Minute)) // past the original deadline
	if !c.Contains("k") {
		t.Fatal("touch did not extend the expiry")
	}
	if err := c.Touch([]byte("missing"), d2); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
}

// TestTouchMovesAcrossTheExpiryTail: a TTL added to an item whose chunk
// has less than 8 bytes of slack moves it up a class; dropping the TTL
// moves it back. Value, flags and CAS token survive both moves.
func TestTouchMovesAcrossTheExpiryTail(t *testing.T) {
	c, clk := expiryCache(t)
	sizes := c.ChunkSizes()
	value := make([]byte, sizes[0]-ItemOverhead-len("k")) // fills class 0 exactly
	for i := range value {
		value[i] = byte(i)
	}
	if err := c.SetBytes([]byte("k"), value, 7, time.Time{}); err != nil {
		t.Fatal(err)
	}
	_, _, tok, _ := getWithCAS(c, "k")
	for _, step := range []struct {
		expire time.Time
		class  int
	}{{clk.Now().Add(time.Hour), 1}, {time.Time{}, 0}} {
		if err := c.Touch([]byte("k"), step.expire); err != nil {
			t.Fatal(err)
		}
		for _, sl := range c.Stats().Slabs {
			want := 0
			if sl.ClassID == step.class {
				want = 1
			}
			if sl.Items != want {
				t.Fatalf("touch to expiry %v: class %d holds %d items, want %d", step.expire, sl.ClassID, sl.Items, want)
			}
		}
		got, flags, cas, err := getWithCAS(c, "k")
		if err != nil || string(got) != string(value) || flags != 7 || cas != tok {
			t.Fatalf("after touch: %d bytes, flags %d, cas %d (want %d), err %v", len(got), flags, cas, tok, err)
		}
		if _, _, exp, _ := c.PeekFull("k"); !exp.Equal(step.expire) {
			t.Fatalf("expiry = %v, want %v", exp, step.expire)
		}
	}
	c.checkShardInvariants(t)
}

// fullCacheWith fills a one-page, one-shard cache whose only page holds
// class 0, after storing key with a value that fills a class-0 chunk
// exactly: a store of key in any other class then gets no chunk.
func fullCacheWith(t *testing.T, key string) *Cache {
	t.Helper()
	c, err := New(PageSize, WithShards(1))
	if err != nil {
		t.Fatal(err)
	}
	fill := make([]byte, c.ChunkSizes()[0]-ItemOverhead-len(key))
	if err := c.Set(key, fill); err != nil {
		t.Fatal(err)
	}
	// Take every page: the class-0 page is full after this.
	for i := 0; c.pool.free() > 0 || c.ClassLen(0) < c.ClassCapacity(0); i++ {
		if err := c.Set(benchKey(i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// TestStoreWithoutChunkDropsItem: a set, an append or a touch that moves
// an item to a class with no chunk to give fails with ErrOutOfMemory and
// leaves the key absent, as memcached's process_update_command does for a
// set whose allocation fails: the next read misses and reads through,
// where the old copy would be a stale value or a wrong expiry.
func TestStoreWithoutChunkDropsItem(t *testing.T) {
	for _, tc := range []struct {
		name  string
		store func(c *Cache) error
	}{
		{"set", func(c *Cache) error { return c.Set("victim", make([]byte, 500)) }},
		{"append", func(c *Cache) error { return c.Append([]byte("victim"), make([]byte, 500)) }},
		{"touch", func(c *Cache) error { return c.Touch([]byte("victim"), time.Now().Add(time.Hour)) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := fullCacheWith(t, "victim")
			if err := tc.store(c); !errors.Is(err, ErrOutOfMemory) {
				t.Fatalf("class-changing %s on a full cache: err = %v, want ErrOutOfMemory", tc.name, err)
			}
			if v, _, exp, ok := c.PeekFull("victim"); ok {
				t.Fatalf("after the failed %s: %d bytes under expiry %v still readable, want a miss", tc.name, len(v), exp)
			}
			c.checkShardInvariants(t)
		})
	}
}

// TestTouchTooLargeDropsItem: a touch that adds a TTL to an item within
// 8 bytes of a page fails with ValueTooLargeError and drops the item,
// rather than leaving it readable with no expiry.
func TestTouchTooLargeDropsItem(t *testing.T) {
	c, err := New(2*PageSize, WithShards(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Set("big", make([]byte, PageSize-ItemOverhead-len("big"))); err != nil {
		t.Fatal(err)
	}
	var tooBig *ValueTooLargeError
	if err := c.Touch([]byte("big"), time.Now().Add(time.Hour)); !errors.As(err, &tooBig) {
		t.Fatalf("touch adding a TTL to a page-sized item: err = %v, want ValueTooLargeError", err)
	}
	if c.Contains("big") {
		t.Fatal("the item the touch could not keep is still readable")
	}
	c.checkShardInvariants(t)
}

func TestStatsCountExpirations(t *testing.T) {
	c, clk := expiryCache(t)
	deadline := clk.Now().Add(time.Second)
	if err := c.SetBytes([]byte("k"), []byte("v"), 0, deadline); err != nil {
		t.Fatal(err)
	}
	clk.Set(deadline.Add(time.Minute))
	_, _ = c.Get("k")
	if st := c.Stats(); st.Expirations != 1 {
		t.Fatalf("Stats.Expirations = %d, want 1", st.Expirations)
	}
}

func TestCommandsRejectEmptyKeys(t *testing.T) {
	c, _ := expiryCache(t)
	if err := c.SetBytes([]byte(""), nil, 0, time.Time{}); !errors.Is(err, ErrEmptyKey) {
		t.Fatal("SetBytes accepted empty key")
	}
	if err := c.Add([]byte(""), nil, 0, time.Time{}); !errors.Is(err, ErrEmptyKey) {
		t.Fatal("Add accepted empty key")
	}
	if err := c.Replace([]byte(""), nil, 0, time.Time{}); !errors.Is(err, ErrEmptyKey) {
		t.Fatal("Replace accepted empty key")
	}
	if err := c.CompareAndSwap([]byte(""), nil, 0, time.Time{}, 0); !errors.Is(err, ErrEmptyKey) {
		t.Fatal("CompareAndSwap accepted empty key")
	}
	if err := c.Append([]byte(""), nil); !errors.Is(err, ErrEmptyKey) {
		t.Fatal("Append accepted empty key")
	}
	if _, err := c.Incr([]byte(""), 1); !errors.Is(err, ErrEmptyKey) {
		t.Fatal("Incr accepted empty key")
	}
}
