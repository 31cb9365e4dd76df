package cache

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
)

// testEpoch is where the tests' fake clocks start.
var testEpoch = time.Unix(1_700_000_000, 0)

// newFakeClock is a clock that ticks 1µs per read, so MRU stamps are
// deterministic and strictly ordered.
func newFakeClock() *clock.Fake { return clock.NewFake(testEpoch, time.Microsecond) }

// newTestCache builds a cache on newFakeClock.
func newTestCache(t *testing.T, pages int) (*Cache, *clock.Fake) {
	t.Helper()
	clk := newFakeClock()
	c, err := New(int64(pages)*PageSize, WithClock(clk.Now))
	if err != nil {
		t.Fatal(err)
	}
	return c, clk
}

func TestNewRejectsTinyBudget(t *testing.T) {
	if _, err := New(PageSize - 1); err == nil {
		t.Fatal("want error for sub-page budget")
	}
}

func TestSetGetRoundTrip(t *testing.T) {
	c, _ := newTestCache(t, 4)
	if err := c.Set("alpha", []byte("value-a")); err != nil {
		t.Fatal(err)
	}
	got, err := c.Get("alpha")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte("value-a")) {
		t.Fatalf("Get = %q, want %q", got, "value-a")
	}
}

func TestGetMiss(t *testing.T) {
	c, _ := newTestCache(t, 1)
	if _, err := c.Get("missing"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
	st := c.Stats()
	if st.Misses != 1 || st.Hits != 0 {
		t.Fatalf("stats = %d hits / %d misses, want 0/1", st.Hits, st.Misses)
	}
}

func TestSetEmptyKey(t *testing.T) {
	c, _ := newTestCache(t, 1)
	if err := c.Set("", []byte("v")); !errors.Is(err, ErrEmptyKey) {
		t.Fatalf("err = %v, want ErrEmptyKey", err)
	}
}

func TestSetOverwriteSameClass(t *testing.T) {
	c, _ := newTestCache(t, 1)
	if err := c.Set("k", []byte("aaaa")); err != nil {
		t.Fatal(err)
	}
	if err := c.Set("k", []byte("bbbb")); err != nil {
		t.Fatal(err)
	}
	got, err := c.Get("k")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "bbbb" {
		t.Fatalf("Get = %q, want overwrite", got)
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.Len())
	}
}

func TestSetOverwriteDifferentClass(t *testing.T) {
	c, _ := newTestCache(t, 4)
	if err := c.Set("k", []byte("small")); err != nil {
		t.Fatal(err)
	}
	big := bytes.Repeat([]byte("x"), 4000)
	if err := c.Set("k", big); err != nil {
		t.Fatal(err)
	}
	got, err := c.Get("k")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 4000 {
		t.Fatalf("value length %d after class move, want 4000", len(got))
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.Len())
	}
}

func TestValueTooLarge(t *testing.T) {
	c, _ := newTestCache(t, 2)
	huge := make([]byte, PageSize+1)
	err := c.Set("k", huge)
	var tooBig *ValueTooLargeError
	if !errors.As(err, &tooBig) {
		t.Fatalf("err = %v, want ValueTooLargeError", err)
	}
}

func TestDelete(t *testing.T) {
	c, _ := newTestCache(t, 1)
	if err := c.Set("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := c.Delete("k"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get("k"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("key still present after delete: %v", err)
	}
	if err := c.Delete("k"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double delete err = %v, want ErrNotFound", err)
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	// One page of the smallest class: fill it, touch the first item, then
	// overflow — the second-inserted (now coldest) item must be evicted.
	c, _ := newTestCache(t, 1)
	val := bytes.Repeat([]byte("v"), 16) // lands in the 96-byte class
	perPage := PageSize / MinChunkSize

	for i := 0; i < perPage; i++ {
		if err := c.Set(fmt.Sprintf("key-%04d", i), val); err != nil {
			t.Fatal(err)
		}
	}
	// Refresh key-0000 so key-0001 is the LRU tail.
	if _, err := c.Get("key-0000"); err != nil {
		t.Fatal(err)
	}
	if err := c.Set("overflow", val); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get("key-0001"); !errors.Is(err, ErrNotFound) {
		t.Fatal("expected key-0001 (LRU tail) to be evicted")
	}
	if !c.Contains("key-0000") {
		t.Fatal("refreshed key-0000 must survive")
	}
	if st := c.Stats(); st.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", st.Evictions)
	}
}

func TestEvictionIsO1TailDrop(t *testing.T) {
	c, _ := newTestCache(t, 1)
	val := bytes.Repeat([]byte("v"), 16)
	perPage := PageSize / MinChunkSize
	for i := 0; i < perPage+100; i++ {
		if err := c.Set(fmt.Sprintf("key-%05d", i), val); err != nil {
			t.Fatal(err)
		}
	}
	if c.Len() != perPage {
		t.Fatalf("Len = %d, want steady-state %d", c.Len(), perPage)
	}
	st := c.Stats()
	if st.Evictions != 100 {
		t.Fatalf("evictions = %d, want 100", st.Evictions)
	}
	// The survivors must be exactly the most recent perPage inserts.
	if c.Contains("key-00099") {
		t.Fatal("old key survived past its eviction point")
	}
	if !c.Contains(fmt.Sprintf("key-%05d", perPage+99)) {
		t.Fatal("newest key missing")
	}
}

func TestPagesAssignedLazily(t *testing.T) {
	c, _ := newTestCache(t, 8)
	if st := c.Stats(); st.AssignedPages != 0 {
		t.Fatalf("fresh cache has %d pages assigned, want 0", st.AssignedPages)
	}
	if err := c.Set("a", []byte("small")); err != nil {
		t.Fatal(err)
	}
	if err := c.Set("b", bytes.Repeat([]byte("x"), 5000)); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.AssignedPages != 2 {
		t.Fatalf("pages = %d, want 2 (one per touched class)", st.AssignedPages)
	}
	if len(st.Slabs) != 2 {
		t.Fatalf("slab stats count = %d, want 2", len(st.Slabs))
	}
}

func TestOutOfMemoryWhenClassHasNothingToEvict(t *testing.T) {
	// 1-page budget: the page goes to the small class; a large item cannot
	// get a chunk and its class has no tail to evict.
	c, _ := newTestCache(t, 1)
	val := bytes.Repeat([]byte("v"), 16)
	perPage := PageSize / MinChunkSize
	for i := 0; i < perPage; i++ {
		if err := c.Set(fmt.Sprintf("key-%04d", i), val); err != nil {
			t.Fatal(err)
		}
	}
	err := c.Set("big", bytes.Repeat([]byte("x"), 100_000))
	if !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("err = %v, want ErrOutOfMemory", err)
	}
}

func TestFlushAll(t *testing.T) {
	c, _ := newTestCache(t, 2)
	for i := 0; i < 100; i++ {
		if err := c.Set(fmt.Sprintf("k%d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	pagesBefore := c.Stats().AssignedPages
	c.FlushAll()
	if c.Len() != 0 {
		t.Fatalf("Len = %d after flush, want 0", c.Len())
	}
	if got := c.Stats().AssignedPages; got != pagesBefore {
		t.Fatalf("flush released pages: %d → %d; memcached keeps them", pagesBefore, got)
	}
	// Reuse after flush must work.
	if err := c.Set("again", []byte("v")); err != nil {
		t.Fatal(err)
	}
}

func TestMRUTimestampUpdatedOnGet(t *testing.T) {
	c, _ := newTestCache(t, 1)
	if err := c.Set("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	metas, err := c.DumpClass(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	t0 := metas[0].LastAccess
	if _, err := c.Get("k"); err != nil {
		t.Fatal(err)
	}
	metas, err = c.DumpClass(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !metas[0].LastAccess.After(t0) {
		t.Fatal("Get did not refresh the MRU timestamp")
	}
}

func TestPeekDoesNotPerturb(t *testing.T) {
	c, _ := newTestCache(t, 1)
	if err := c.Set("a", []byte("1")); err != nil {
		t.Fatal(err)
	}
	if err := c.Set("b", []byte("2")); err != nil {
		t.Fatal(err)
	}
	// b is at the head; Peek(a) must not promote a.
	if _, ok := c.Peek("a"); !ok {
		t.Fatal("Peek lost the key")
	}
	metas, err := c.DumpClass(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if metas[0].Key != "b" {
		t.Fatalf("head = %q after Peek, want %q", metas[0].Key, "b")
	}
	if st := c.Stats(); st.Hits != 0 {
		t.Fatalf("Peek counted a hit: %d", st.Hits)
	}
	if _, ok := c.Peek("zzz"); ok {
		t.Fatal("Peek found a missing key")
	}
	if st := c.Stats(); st.Misses != 0 {
		t.Fatal("Peek counted a miss")
	}
}

func TestClassForItem(t *testing.T) {
	c, _ := newTestCache(t, 1)
	tests := []struct {
		keyLen, valLen int
		wantChunkMin   int
	}{
		{keyLen: 11, valLen: 1, wantChunkMin: MinChunkSize},
		{keyLen: 11, valLen: 500, wantChunkMin: 512 + ItemOverhead},
	}
	for _, tt := range tests {
		_, chunk, err := c.classForItem(tt.keyLen, tt.valLen)
		if err != nil {
			t.Fatal(err)
		}
		if chunk < tt.keyLen+tt.valLen+ItemOverhead {
			t.Fatalf("chunk %d too small for item", chunk)
		}
	}
	if _, _, err := c.classForItem(10, PageSize); err == nil {
		t.Fatal("want error for page-exceeding item")
	}
}

// TestKeyLengthCapOnEveryStorePath: a key that fills the chunk header's
// 16-bit length field is stored and readable through every store path;
// one byte longer is refused by each of them, rather than stored with a
// wrapped length that leaves the item resident but unreachable.
func TestKeyLengthCapOnEveryStorePath(t *testing.T) {
	v := []byte("v")
	paths := []struct {
		name  string
		store func(c *Cache, key string) error
		want  string
	}{
		{"Set", func(c *Cache, key string) error { return c.Set(key, v) }, "v"},
		{"SetBytes", func(c *Cache, key string) error { return c.SetBytes([]byte(key), v, 0, time.Time{}) }, "v"},
		{"Add", func(c *Cache, key string) error { return c.Add([]byte(key), v, 0, time.Time{}) }, "v"},
		{"Replace", func(c *Cache, key string) error {
			_ = c.Set(key, []byte("old"))
			return c.Replace([]byte(key), v, 0, time.Time{})
		}, "v"},
		{"Append", func(c *Cache, key string) error {
			_ = c.Set(key, v)
			return c.Append([]byte(key), []byte("w"))
		}, "vw"},
		{"Prepend", func(c *Cache, key string) error {
			_ = c.Set(key, v)
			return c.Prepend([]byte(key), []byte("w"))
		}, "wv"},
		{"BatchImport", func(c *Cache, key string) error {
			_, err := c.BatchImport([]KV{{Key: key, Value: v}}, false)
			return err
		}, "v"},
	}
	for _, p := range paths {
		for _, keyLen := range []int{maxKeyLen, maxKeyLen + 1} {
			c, err := New(8*PageSize, WithShards(1))
			if err != nil {
				t.Fatal(err)
			}
			key := strings.Repeat("k", keyLen)
			err = p.store(c, key)
			got, ok := c.Peek(key)
			if keyLen > maxKeyLen {
				if err == nil || ok || c.Len() != 0 {
					t.Errorf("%s of a %d-byte key: err=%.80v readable=%v len=%d, want a refusal", p.name, keyLen, err, ok, c.Len())
				}
				continue
			}
			if err != nil || !ok || string(got) != p.want || c.Len() != 1 {
				t.Errorf("%s of a %d-byte key: err=%.80v value=%q readable=%v len=%d, want %q stored", p.name, keyLen, err, got, ok, c.Len(), p.want)
			}
		}
	}
}

func TestChunkSizesLadder(t *testing.T) {
	c, _ := newTestCache(t, 1)
	sizes := c.ChunkSizes()
	if sizes[0] != MinChunkSize {
		t.Fatalf("first class %d, want %d", sizes[0], MinChunkSize)
	}
	if sizes[len(sizes)-1] != PageSize {
		t.Fatalf("last class %d, want page size", sizes[len(sizes)-1])
	}
	for i := 1; i < len(sizes); i++ {
		if sizes[i] <= sizes[i-1] {
			t.Fatalf("ladder not strictly increasing at %d", i)
		}
	}
	// Growth factor must hold approximately through the ladder interior.
	for i := 1; i < len(sizes)-1; i++ {
		ratio := float64(sizes[i]) / float64(sizes[i-1])
		if ratio > 1.30 {
			t.Fatalf("growth ratio %.3f at class %d exceeds 1.30", ratio, i)
		}
	}
}

func TestStatsBytesUsed(t *testing.T) {
	c, _ := newTestCache(t, 2)
	if err := c.Set("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.BytesUsed != int64(MinChunkSize) {
		t.Fatalf("BytesUsed = %d, want one %d-byte chunk", st.BytesUsed, MinChunkSize)
	}
	if st.Items != 1 || st.Sets != 1 {
		t.Fatalf("Items/Sets = %d/%d, want 1/1", st.Items, st.Sets)
	}
}

func TestConcurrentSetGet(t *testing.T) {
	c, _ := newTestCache(t, 8)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				key := fmt.Sprintf("g%d-k%d", g, i%50)
				if err := c.Set(key, []byte(strings.Repeat("x", i%200+1))); err != nil {
					t.Errorf("Set: %v", err)
					return
				}
				if _, err := c.Get(key); err != nil && !errors.Is(err, ErrNotFound) {
					t.Errorf("Get: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestCapacity(t *testing.T) {
	c, _ := newTestCache(t, 4)
	if got := c.Capacity(); got != 4*PageSize {
		t.Fatalf("Capacity = %d, want %d", got, 4*PageSize)
	}
}

func TestWithGrowthFactor(t *testing.T) {
	c, err := New(PageSize, WithGrowthFactor(2.0))
	if err != nil {
		t.Fatal(err)
	}
	sizes := c.ChunkSizes()
	// Factor 2 halves the class count relative to 1.25.
	def, err := New(PageSize)
	if err != nil {
		t.Fatal(err)
	}
	if len(sizes) >= len(def.ChunkSizes()) {
		t.Fatalf("factor 2.0 produced %d classes vs default %d", len(sizes), len(def.ChunkSizes()))
	}
	// A degenerate factor falls back to the default ladder.
	c2, err := New(PageSize, WithGrowthFactor(0.5))
	if err != nil {
		t.Fatal(err)
	}
	if len(c2.ChunkSizes()) != len(def.ChunkSizes()) {
		t.Fatal("degenerate growth factor not defaulted")
	}
}

func TestValueTooLargeErrorMessage(t *testing.T) {
	err := &ValueTooLargeError{Key: "big", Need: PageSize + 1}
	msg := err.Error()
	if !strings.Contains(msg, "big") || !strings.Contains(msg, "exceeding") {
		t.Fatalf("error message = %q", msg)
	}
}

func TestClassAbsorbCapacity(t *testing.T) {
	c, _ := newTestCache(t, 4)
	// Fresh cache: every class can absorb all 4 pages' worth of chunks.
	if got := c.ClassAbsorbCapacity(0); got != 4*(PageSize/MinChunkSize) {
		t.Fatalf("fresh absorb = %d, want %d", got, 4*(PageSize/MinChunkSize))
	}
	// Assign one page to class 0 by inserting an item.
	if err := c.Set("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	// Class 0 absorb = its 1 assigned page + 3 free pages.
	if got := c.ClassAbsorbCapacity(0); got != 4*(PageSize/MinChunkSize) {
		t.Fatalf("absorb after 1 page = %d", got)
	}
	// Another class can only count the 3 unassigned pages.
	bigClass, _, err := c.classForItem(10, 3000)
	if err != nil {
		t.Fatal(err)
	}
	chunks := PageSize / c.ChunkSizes()[bigClass]
	if got := c.ClassAbsorbCapacity(bigClass); got != 3*chunks {
		t.Fatalf("unassigned-class absorb = %d, want %d", got, 3*chunks)
	}
	if got := c.ClassAbsorbCapacity(-1); got != 0 {
		t.Fatalf("absorb(-1) = %d", got)
	}
	if got := c.ClassAbsorbCapacity(10_000); got != 0 {
		t.Fatalf("absorb(out of range) = %d", got)
	}
}

// classForItem reports which slab class an item of the given key and value
// lengths that never expires lands in, and that class's chunk size. An
// expiring item needs 8 bytes more (see arena.go).
func (c *Cache) classForItem(keyLen, valueLen int) (classID, chunkSize int, err error) {
	need := itemNeed(keyLen, valueLen, nanoNone)
	id := classForSize(c.classes, need)
	if id < 0 {
		return 0, 0, &ValueTooLargeError{Need: need}
	}
	return id, c.classes[id], nil
}

// TestCacheDefaultClockMonotonic: a cache built without WithClock stamps
// entries with non-decreasing timestamps.
func TestCacheDefaultClockMonotonic(t *testing.T) {
	c, err := New(PageSize)
	if err != nil {
		t.Fatal(err)
	}
	prev := c.nowNano()
	for i := 0; i < 1000; i++ {
		cur := c.nowNano()
		if cur < prev {
			t.Fatalf("cache clock went backwards: %v -> %v", prev, cur)
		}
		prev = cur
	}
}
