package cache

import (
	"bytes"
	"testing"
)

// FuzzChunkLayout writes an item — key, value, flags, CAS, access stamp
// and either an expiry or none — into the smallest class that fits it,
// inside a chunk that held garbage before, and checks that every field
// reads back identically, that nothing outside the chunk is written, and
// that the expiry tail never overlaps the key or the value.
//
// Run `go test -fuzz FuzzChunkLayout ./internal/cache` (or `make fuzz`).
func FuzzChunkLayout(f *testing.F) {
	f.Add([]byte("k"), []byte("v"), uint32(0), uint64(0), int64(0), int64(0), false)
	f.Add([]byte("key-000001"), make([]byte, 700), uint32(0xDEADBEEF), uint64(42), int64(1_700_000_000_000_000_000), int64(1_700_000_001_000_000_000), true)
	// Exact fits of class 0 (96 B) with and without a tail.
	f.Add([]byte("k"), make([]byte, MinChunkSize-ItemOverhead-1), uint32(1), uint64(1), int64(1), int64(0), false)
	f.Add([]byte("k"), make([]byte, MinChunkSize-ItemOverhead-expiryBytes-1), uint32(1), uint64(1), int64(1), int64(-1), true)
	f.Add([]byte{}, []byte{}, ^uint32(0), ^uint64(0), int64(nanoNone), int64(nanoNone), true)

	classes := sizeClasses(DefaultGrowthFactor)
	f.Fuzz(func(t *testing.T, key, value []byte, flags uint32, cas uint64, access, expire int64, expires bool) {
		if !expires {
			expire = nanoNone
		}
		if len(key) > maxKeyLen {
			key = key[:maxKeyLen]
		}
		need := itemNeed(len(key), len(value), expire)
		id := classForSize(classes, need)
		if id < 0 {
			return // over a page: classFor refuses it
		}
		cs := classes[id]
		if id > 0 && need <= classes[id-1] {
			t.Fatalf("need %d fits class %d (%d B), picked %d", need, id-1, classes[id-1], id)
		}

		// The chunk sits between guard bytes in a buffer that starts out
		// as garbage, like a recycled chunk of another item.
		const guard = 16
		buf := bytes.Repeat([]byte{0xA5}, guard+cs+guard)
		ch := buf[guard : guard+cs : guard+cs]
		writeChunk(ch, key, value, flags, cas, access, expire)
		setChNext(ch, makeRef(3, 5))
		setChPrev(ch, makeRef(7, 11))
		setChTag(ch, 9)

		check := func(stage string) {
			t.Helper()
			if got := chKey(ch); !bytes.Equal(got, key) {
				t.Fatalf("%s: key = %q, want %q", stage, got, key)
			}
			if got := chValue(ch); !bytes.Equal(got, value) {
				t.Fatalf("%s: value differs (%d bytes, want %d)", stage, len(got), len(value))
			}
			if got := chFlags(ch); got != flags {
				t.Fatalf("%s: flags = %#x, want %#x", stage, got, flags)
			}
			if got := chCAS(ch); got != cas {
				t.Fatalf("%s: cas = %d, want %d", stage, got, cas)
			}
			if got := chAccess(ch); got != access {
				t.Fatalf("%s: access = %d, want %d", stage, got, access)
			}
			if got := chExpire(ch); got != expire {
				t.Fatalf("%s: expire = %d, want %d", stage, got, expire)
			}
			if chNext(ch) != makeRef(3, 5) || chPrev(ch) != makeRef(7, 11) || chTag(ch) != 9 {
				t.Fatalf("%s: links or live tag clobbered", stage)
			}
			for i := 0; i < guard; i++ {
				if buf[i] != 0xA5 || buf[guard+cs+i] != 0xA5 {
					t.Fatalf("%s: a byte outside the %d-byte chunk was written", stage, cs)
				}
			}
		}
		check("write")

		end := chunkHeaderSize + len(key) + len(value)
		if expire != nanoNone {
			if end > cs-expiryBytes {
				t.Fatalf("payload ends at %d, inside the expiry tail at %d", end, cs-expiryBytes)
			}
			// Rewriting the tail leaves the key and the value alone (^expire
			// is nanoNone only for the largest expiry: then it drops it).
			expire = ^expire
			setChExpire(ch, expire)
			check("tail rewrite")
		}
		// Rewriting the value in place keeps the tail.
		value = bytes.Repeat([]byte{0x5A}, len(value))
		setChValue(ch, value, expire)
		check("value rewrite")
	})
}
