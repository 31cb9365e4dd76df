package cache

import (
	"bytes"
	"math"
	"testing"
	"time"
)

// TestChunkHeaderLayout pins the on-arena header layout. ItemOverhead is
// advertised in the public API (capacity planning, slab-class fit) and the
// migration replay rule depends on timestamps surviving a round-trip
// through the header, so layout drift must be a conscious, test-visible
// change.
func TestChunkHeaderLayout(t *testing.T) {
	if headerFieldBytes != 36 {
		t.Errorf("headerFieldBytes = %d, want 36 (field added/removed without updating layout tests?)", headerFieldBytes)
	}
	if chunkHeaderSize != 36 {
		t.Errorf("chunkHeaderSize = %d, want 36 (an unpadded header: class and tenant come from the page, expiry from the tail)", chunkHeaderSize)
	}
	if ItemOverhead != chunkHeaderSize {
		t.Errorf("ItemOverhead = %d, want chunkHeaderSize = %d: the public overhead constant must be the real header size", ItemOverhead, chunkHeaderSize)
	}
	if got := itemNeed(0, 0, nanoNone); got != 36 {
		t.Errorf("an item with no expiry costs %d bytes of overhead, want 36", got)
	}
	if got := itemNeed(0, 0, 1); got != 44 {
		t.Errorf("an item with an expiry costs %d bytes of overhead, want 44", got)
	}
	if PageSize >= vlenHasExpiry {
		t.Errorf("a page-sized value length collides with the expiry flag bit %#x", vlenHasExpiry)
	}
	// Packed links require every chunk index to fit linkChunkBits.
	if maxChunks := PageSize / MinChunkSize; maxChunks > linkChunkMask {
		t.Errorf("PageSize/MinChunkSize = %d chunks exceeds the %d-bit packed-link chunk field", maxChunks, linkChunkBits)
	}
	// Field offsets must not overlap: each field's end is the next offset.
	offsets := []struct {
		name      string
		off, size int
	}{
		{"next", hNext, 4},
		{"prev", hPrev, 4},
		{"cas", hCAS, 8},
		{"access", hAccess, 8},
		{"flags", hFlags, 4},
		{"vlen", hVLen, 4},
		{"klen", hKLen, 2},
		{"tag", hTag, 2},
	}
	for i := 1; i < len(offsets); i++ {
		prev := offsets[i-1]
		if prev.off+prev.size != offsets[i].off {
			t.Errorf("field %s at %d does not follow %s (%d+%d)",
				offsets[i].name, offsets[i].off, prev.name, prev.off, prev.size)
		}
	}
	last := offsets[len(offsets)-1]
	if last.off+last.size != headerFieldBytes {
		t.Errorf("last field ends at %d, headerFieldBytes = %d", last.off+last.size, headerFieldBytes)
	}
}

// TestChunkFieldRoundTrips writes a full item into a chunk and reads every
// field back through the accessors.
func TestChunkFieldRoundTrips(t *testing.T) {
	ch := make([]byte, 256)
	key := []byte("the-key")
	value := []byte("the-value-bytes")
	access := time.Unix(1600000000, 123456789).UnixNano()
	expire := time.Unix(1700000000, 987654321).UnixNano()
	writeChunk(ch, key, value, 0xDEADBEEF, 42, access, expire)

	if got := chKey(ch); !bytes.Equal(got, key) {
		t.Errorf("key = %q, want %q", got, key)
	}
	if got := chValue(ch); !bytes.Equal(got, value) {
		t.Errorf("value = %q, want %q", got, value)
	}
	if got := chFlags(ch); got != 0xDEADBEEF {
		t.Errorf("flags = %#x, want 0xDEADBEEF", got)
	}
	if got := chCAS(ch); got != 42 {
		t.Errorf("cas = %d, want 42", got)
	}
	if got := chAccess(ch); got != access {
		t.Errorf("access = %d, want %d", got, access)
	}
	if got := chExpire(ch); got != expire {
		t.Errorf("expire = %d, want %d", got, expire)
	}
	if got := chKLen(ch); got != len(key) {
		t.Errorf("klen = %d, want %d", got, len(key))
	}
	if got := chVLen(ch); got != len(value) {
		t.Errorf("vlen = %d, want %d", got, len(value))
	}

	// List links live outside writeChunk's responsibility but share the
	// header; setting them must not clobber the item fields.
	setChNext(ch, makeRef(7, 9))
	setChPrev(ch, makeRef(1, 2))
	if chNext(ch) != makeRef(7, 9) || chPrev(ch) != makeRef(1, 2) {
		t.Error("list link round-trip failed")
	}
	if !bytes.Equal(chKey(ch), key) || chCAS(ch) != 42 {
		t.Error("setting list links corrupted item fields")
	}

	// Shrinking the value in place must re-slice, not leave stale bytes,
	// and dropping the expiry must read back as none.
	setChValue(ch, []byte("tiny"), nanoNone)
	if got := chValue(ch); string(got) != "tiny" {
		t.Errorf("after setChValue, value = %q, want \"tiny\"", got)
	}
	if got := chExpire(ch); got != nanoNone {
		t.Errorf("after dropping the expiry, expire = %d, want none", got)
	}
	if !bytes.Equal(chKey(ch), key) {
		t.Error("setChValue corrupted the key")
	}
	setChExpire(ch, expire)
	if chExpire(ch) != expire || string(chValue(ch)) != "tiny" {
		t.Error("setChExpire did not add the expiry, or changed the value")
	}
}

// TestItemRefEncoding checks the packed ref: page+1 in the high word keeps
// the zero value as nil, and tombRef can never collide with a real ref.
func TestItemRefEncoding(t *testing.T) {
	// Page indexes are bounded by the pool's page table (an int count of
	// 1 MiB pages), so 2^30 pages ≈ 1 PiB is already far beyond any real
	// deployment; tombRef only collides at page 2^32-2.
	cases := []struct{ page, chunk uint32 }{
		{0, 0}, {0, 1}, {1, 0}, {12345, 67890}, {1 << 30, math.MaxUint32},
	}
	for _, c := range cases {
		r := makeRef(c.page, c.chunk)
		if r == nilRef {
			t.Errorf("makeRef(%d,%d) collides with nilRef", c.page, c.chunk)
		}
		if r == tombRef {
			t.Errorf("makeRef(%d,%d) collides with tombRef", c.page, c.chunk)
		}
		if r.page() != c.page || r.chunk() != c.chunk {
			t.Errorf("ref(%d,%d) round-trips to (%d,%d)", c.page, c.chunk, r.page(), r.chunk())
		}
	}
	if nilRef != 0 {
		t.Error("nilRef must be the zero value so zeroed tables start empty")
	}
}

// TestPackedLinkEncoding checks the 32-bit header-link form of a ref: nil
// stays nil, and every (page, chunk) a real pool can produce round-trips.
func TestPackedLinkEncoding(t *testing.T) {
	if packLink(nilRef) != 0 || unpackLink(0) != nilRef {
		t.Error("nil link must pack/unpack to zero")
	}
	maxChunk := uint32(PageSize/MinChunkSize - 1)
	cases := []struct{ page, chunk uint32 }{
		{0, 0}, {0, 1}, {1, 0}, {511, maxChunk},
		{maxArenaPages - 1, maxChunk}, {maxArenaPages - 1, 0},
	}
	for _, c := range cases {
		r := makeRef(c.page, c.chunk)
		if got := unpackLink(packLink(r)); got != r {
			t.Errorf("link (page %d, chunk %d) round-trips to (page %d, chunk %d)",
				c.page, c.chunk, got.page(), got.chunk())
		}
	}
	// The pool clamps its budget to what links can address. Only the
	// mapped arena can reserve 256 GiB without committing it.
	if !arenaOffHeap {
		return
	}
	var pool pagePool
	if err := pool.init(maxArenaPages+100, sizeClasses(DefaultGrowthFactor)); err != nil {
		t.Fatal(err)
	}
	if pool.max != maxArenaPages {
		t.Errorf("pool max = %d, want clamped to %d", pool.max, maxArenaPages)
	}
}

// TestNanoSentinel checks the zero-time convention shared with the binary
// migration codec: zero time ↔ nanoNone, everything else exact.
func TestNanoSentinel(t *testing.T) {
	if toNano(time.Time{}) != nanoNone {
		t.Error("toNano(zero) != nanoNone")
	}
	if !fromNano(nanoNone).IsZero() {
		t.Error("fromNano(nanoNone) not zero time")
	}
	ts := time.Unix(1234567890, 42)
	if !fromNano(toNano(ts)).Equal(ts) {
		t.Error("non-zero time did not round-trip")
	}
	// An item with no expiry never expires, even at extreme clock values.
	ch := make([]byte, chunkHeaderSize+expiryBytes)
	setChExpire(ch, nanoNone)
	if chExpired(ch, math.MaxInt64) {
		t.Error("nanoNone expiry reported expired")
	}
	setChExpire(ch, 1000)
	if !chExpired(ch, 1000) {
		t.Error("expiry boundary should be inclusive (now >= expire)")
	}
	if chExpired(ch, 999) {
		t.Error("expired before its time")
	}
}

// TestPagePoolAssignment checks the fixed-table page allocator: IDs are
// dense, chunk sizes stick, and the budget is a hard cap.
func TestPagePoolAssignment(t *testing.T) {
	var pool pagePool
	sizes := []int{128, 256, 1024}
	if err := pool.init(3, sizes); err != nil {
		t.Fatal(err)
	}
	for i := range sizes {
		id, ok := pool.tryAcquire(0, i)
		if !ok {
			t.Fatalf("acquire %d failed", i)
		}
		if id != uint32(i) {
			t.Fatalf("page ID = %d, want %d", id, i)
		}
	}
	if _, ok := pool.tryAcquire(0, 0); ok {
		t.Fatal("acquire beyond budget succeeded")
	}
	if pool.assignedCount() != 3 || pool.free() != 0 {
		t.Fatalf("assigned=%d free=%d, want 3/0", pool.assignedCount(), pool.free())
	}
	// chunkAt must resolve against the page's own chunk size.
	for i, cs := range sizes {
		ref := makeRef(uint32(i), 2)
		ch := pool.chunkAt(ref)
		if len(ch) != cs {
			t.Errorf("page %d chunk len = %d, want %d", i, len(ch), cs)
		}
	}
}

// TestItemOverheadGovernsClassFit: an item of exactly chunkSize-overhead
// payload fits its class; one byte more spills to the next class. This is
// the contract capacity planning (and the migration receiver's class
// agreement check) relies on.
func TestItemOverheadGovernsClassFit(t *testing.T) {
	c, err := New(4 * PageSize)
	if err != nil {
		t.Fatal(err)
	}
	sizes := c.ChunkSizes()
	key := "k"
	fit := sizes[0] - ItemOverhead - len(key)
	if id, _, err := c.classForItem(len(key), fit); err != nil || id != 0 {
		t.Errorf("payload of exactly class-0 capacity lands in class %d (err %v)", id, err)
	}
	if id, _, err := c.classForItem(len(key), fit+1); err != nil || id != 1 {
		t.Errorf("payload one over class-0 capacity lands in class %d (err %v), want 1", id, err)
	}
	// And the store path agrees with the classifier.
	if err := c.Set(key, make([]byte, fit)); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Slabs[0].Items != 1 {
		t.Error("exact-fit item not stored in class 0")
	}
}
