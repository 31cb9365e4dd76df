package cache

import (
	"fmt"
	"testing"
	"time"
)

// Flags are opaque client metadata: they must survive every store variant,
// every read variant, and a full migration (timestamp dump → fetch →
// batch import) between caches.

func TestFlagsRoundTripStoresAndReads(t *testing.T) {
	c, err := New(2 * PageSize)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SetBytes([]byte("k"), []byte("v"), 42, time.Time{}); err != nil {
		t.Fatal(err)
	}
	if _, flags, _, err := getWithCAS(c, "k"); err != nil || flags != 42 {
		t.Fatalf("GetWithCAS flags = %d, %v; want 42", flags, err)
	}
	if _, flags, _, hit := c.GetInto([]byte("k"), nil); !hit || flags != 42 {
		t.Fatalf("GetInto flags = %d, hit=%v; want 42", flags, hit)
	}
	if items, _ := c.GetMultiInto([][]byte{[]byte("k")}, nil, nil); !items[0].Hit || items[0].Flags != 42 {
		t.Fatalf("GetMultiInto flags = %+v; want 42", items[0])
	}

	// Overwrites replace the flags; same-class in-place updates included.
	if err := c.SetBytes([]byte("k"), []byte("w"), 7, time.Time{}); err != nil {
		t.Fatal(err)
	}
	val, flags, _, hit := c.GetInto([]byte("k"), nil)
	if !hit || flags != 7 || string(val) != "w" {
		t.Fatalf("after overwrite: value=%q flags=%d hit=%v", val, flags, hit)
	}

	// A flagless convenience Set zeroes them, like "set k 0 ...".
	if err := c.Set("k", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, flags, _, _ := c.GetInto([]byte("k"), nil); flags != 0 {
		t.Fatalf("flags after plain Set = %d, want 0", flags)
	}
}

func TestFlagsPreservedByEditsAndArith(t *testing.T) {
	c, err := New(2 * PageSize)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SetBytes([]byte("n"), []byte("10"), 9, time.Time{}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Incr([]byte("n"), 5); err != nil {
		t.Fatal(err)
	}
	if _, flags, _, _ := c.GetInto([]byte("n"), nil); flags != 9 {
		t.Fatalf("flags after incr = %d, want 9", flags)
	}
	if err := c.Append([]byte("n"), []byte("7")); err != nil {
		t.Fatal(err)
	}
	if _, flags, _, _ := c.GetInto([]byte("n"), nil); flags != 9 {
		t.Fatalf("flags after append = %d, want 9", flags)
	}
}

// TestFlagsSurviveMigration is the satellite acceptance path: set with
// flags, dump timestamps, fetch the pairs, batch-import them into a second
// cache, and read the flags back.
func TestFlagsSurviveMigration(t *testing.T) {
	src, err := New(2 * PageSize)
	if err != nil {
		t.Fatal(err)
	}
	if err := src.SetBytes([]byte("mig"), []byte("payload"), 1234, time.Time{}); err != nil {
		t.Fatal(err)
	}
	classID, _, err := src.classForItem(len("mig"), len("payload"))
	if err != nil {
		t.Fatal(err)
	}

	// Phase 1: the metadata dump sees the item.
	metas, err := src.DumpClass(classID, nil)
	if err != nil || len(metas) != 1 || metas[0].Key != "mig" {
		t.Fatalf("DumpClass = %+v, %v", metas, err)
	}

	// Phase 3: fetch carries the flags.
	pairs := topPairs(t, src, classID, 1, nil)
	if len(pairs) != 1 {
		t.Fatalf("top pairs = %+v", pairs)
	}
	if pairs[0].Flags != 1234 {
		t.Fatalf("fetched flags = %d, want 1234", pairs[0].Flags)
	}

	dst, err := New(2 * PageSize)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := dst.BatchImport(pairs, true); err != nil || n != 1 {
		t.Fatalf("BatchImport = %d, %v", n, err)
	}
	val, flags, _, hit := dst.GetInto([]byte("mig"), nil)
	if !hit || string(val) != "payload" || flags != 1234 {
		t.Fatalf("after import: value=%q flags=%d hit=%v, want payload/1234", val, flags, hit)
	}

	// A local set after the pair was fetched is the fresher write: the
	// replayed import must not clobber its value or flags.
	if err := dst.SetBytes([]byte("mig"), []byte("stale-v"), 1, time.Time{}); err != nil {
		t.Fatal(err)
	}
	if n, err := dst.BatchImport(pairs, true); err != nil || n != 1 {
		t.Fatalf("re-import = %d, %v", n, err)
	}
	if _, flags, _, _ := dst.GetInto([]byte("mig"), nil); flags != 1 {
		t.Fatalf("flags after stale re-import = %d, want the local set's 1", flags)
	}

	// A strictly fresher import onto the existing same-class item must
	// update value and flags together.
	fresher := pairs
	fresher[0].LastAccess = time.Now().Add(time.Hour)
	if n, err := dst.BatchImport(fresher, true); err != nil || n != 1 {
		t.Fatalf("fresher re-import = %d, %v", n, err)
	}
	if _, flags, _, _ := dst.GetInto([]byte("mig"), nil); flags != 1234 {
		t.Fatalf("flags after fresher re-import = %d, want 1234", flags)
	}
}

// TestGetMultiIntoOrderAndReuse covers the hot-path batched read: results
// in request order, misses marked, values resolved through the arena, and
// scratch reuse across calls.
func TestGetMultiIntoOrderAndReuse(t *testing.T) {
	c, err := New(2 * PageSize)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SetBytes([]byte("a"), []byte("va"), 1, time.Time{}); err != nil {
		t.Fatal(err)
	}
	if err := c.SetBytes([]byte("b"), []byte("vbb"), 2, time.Time{}); err != nil {
		t.Fatal(err)
	}
	keys := [][]byte{[]byte("b"), []byte("missing"), []byte("a")}
	items, arena := c.GetMultiInto(keys, nil, nil)
	if len(items) != 3 {
		t.Fatalf("items = %d, want 3", len(items))
	}
	if !items[0].Hit || string(items[0].ValueIn(arena)) != "vbb" || items[0].Flags != 2 {
		t.Fatalf("items[0] = %+v value %q", items[0], items[0].ValueIn(arena))
	}
	if items[1].Hit {
		t.Fatalf("items[1] = %+v, want miss", items[1])
	}
	if !items[2].Hit || string(items[2].ValueIn(arena)) != "va" || items[2].Flags != 1 {
		t.Fatalf("items[2] = %+v value %q", items[2], items[2].ValueIn(arena))
	}
	// CAS tokens must match the single-key gets path.
	_, _, cas, err := getWithCAS(c, "a")
	if err != nil || items[2].CAS != cas {
		t.Fatalf("CAS = %d, GetWithCAS = %d (%v)", items[2].CAS, cas, err)
	}

	// Reusing the returned scratch must reset it, not append to it.
	items2, arena2 := c.GetMultiInto(keys[:1], items, arena)
	if len(items2) != 1 || string(items2[0].ValueIn(arena2)) != "vbb" {
		t.Fatalf("reused scratch = %+v", items2)
	}

	if items, _ := c.GetMultiInto(nil, nil, nil); len(items) != 0 {
		t.Fatalf("empty batch = %+v", items)
	}
}

// TestCacheOwnsValueBuffers pins the ownership contract the zero-alloc set
// path depends on: mutating a caller's buffer after a store, or a returned
// buffer after a read, must not affect the cached bytes.
func TestCacheOwnsValueBuffers(t *testing.T) {
	c, err := New(2 * PageSize)
	if err != nil {
		t.Fatal(err)
	}
	buf := []byte("original")
	if err := c.SetBytes([]byte("k"), buf, 0, time.Time{}); err != nil {
		t.Fatal(err)
	}
	copy(buf, "CLOBBER!")
	got, _ := c.Peek("k")
	if string(got) != "original" {
		t.Fatalf("stored value aliases caller buffer: %q", got)
	}
	copy(got, "overwrit")
	if again, _ := c.Peek("k"); string(again) != "original" {
		t.Fatalf("returned value aliases cache buffer: %q", again)
	}
}

// TestGetFuncOrderAndStop: GetFunc calls back for hits only, in key order,
// with the flags and CAS token GetWithCAS reads; a callback that returns
// false ends the walk after its key, and only the keys walked count as
// hits or misses.
func TestGetFuncOrderAndStop(t *testing.T) {
	c, err := New(2 * PageSize)
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range []string{"a", "b", "c"} {
		if err := c.SetBytes([]byte(k), []byte("v"+k), uint32(i+1), time.Time{}); err != nil {
			t.Fatal(err)
		}
	}
	_, _, casA, err := getWithCAS(c, "a")
	if err != nil {
		t.Fatal(err)
	}
	before := c.Stats()
	keys := [][]byte{[]byte("b"), []byte("missing"), []byte("a"), []byte("c")}
	var got []string
	var gotCAS uint64
	n := c.GetFunc(keys, func(i int, flags uint32, casToken uint64, value []byte) bool {
		got = append(got, fmt.Sprintf("%d:%s:%d", i, value, flags))
		if string(keys[i]) == "a" {
			gotCAS = casToken
			return false
		}
		return true
	})
	if want := []string{"0:vb:2", "2:va:1"}; n != 3 || fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("GetFunc walked %d keys calling back %v, want 3 and %v", n, got, want)
	}
	if gotCAS != casA {
		t.Fatalf("CAS = %d, GetWithCAS = %d", gotCAS, casA)
	}
	after := c.Stats()
	if after.Hits-before.Hits != 2 || after.Misses-before.Misses != 1 {
		t.Fatalf("counted %d hits and %d misses, want 2 and 1",
			after.Hits-before.Hits, after.Misses-before.Misses)
	}
}
