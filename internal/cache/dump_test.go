package cache

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"
)

func fill(t *testing.T, c *Cache, n int, prefix string) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := c.Set(fmt.Sprintf("%s-%04d", prefix, i), []byte("val")); err != nil {
			t.Fatal(err)
		}
	}
}

func TestDumpClassMRUOrder(t *testing.T) {
	c, _ := newTestCache(t, 1)
	fill(t, c, 10, "key")
	metas, err := c.DumpClass(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(metas) != 10 {
		t.Fatalf("dump has %d entries, want 10", len(metas))
	}
	// Insertion order means the last-set key is hottest.
	if metas[0].Key != "key-0009" {
		t.Fatalf("head = %q, want key-0009", metas[0].Key)
	}
	for i := 1; i < len(metas); i++ {
		if metas[i].LastAccess.After(metas[i-1].LastAccess) {
			t.Fatalf("dump not in non-increasing timestamp order at %d", i)
		}
	}
}

func TestDumpClassGetPromotes(t *testing.T) {
	c, _ := newTestCache(t, 1)
	fill(t, c, 5, "key")
	if _, err := c.Get("key-0000"); err != nil {
		t.Fatal(err)
	}
	metas, err := c.DumpClass(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if metas[0].Key != "key-0000" {
		t.Fatalf("head = %q after Get, want key-0000", metas[0].Key)
	}
}

func TestDumpClassFilter(t *testing.T) {
	c, _ := newTestCache(t, 1)
	fill(t, c, 10, "keep")
	fill(t, c, 10, "drop")
	metas, err := c.DumpClass(0, func(k string) bool { return strings.HasPrefix(k, "keep") })
	if err != nil {
		t.Fatal(err)
	}
	if len(metas) != 10 {
		t.Fatalf("filtered dump has %d entries, want 10", len(metas))
	}
	for _, m := range metas {
		if !strings.HasPrefix(m.Key, "keep") {
			t.Fatalf("filter leaked key %q", m.Key)
		}
	}
}

func TestDumpClassOutOfRange(t *testing.T) {
	c, _ := newTestCache(t, 1)
	if _, err := c.DumpClass(-1, nil); err == nil {
		t.Fatal("want error for negative class")
	}
	if _, err := c.DumpClass(10_000, nil); err == nil {
		t.Fatal("want error for out-of-range class")
	}
}

func TestDumpClassEmpty(t *testing.T) {
	c, _ := newTestCache(t, 1)
	metas, err := c.DumpClass(3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if metas != nil {
		t.Fatalf("dump of untouched class = %v, want nil", metas)
	}
}

func TestDumpAll(t *testing.T) {
	c, _ := newTestCache(t, 4)
	fill(t, c, 5, "small")
	big := bytes.Repeat([]byte("x"), 3000)
	for i := 0; i < 3; i++ {
		if err := c.Set(fmt.Sprintf("big-%d", i), big); err != nil {
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
	}
	if total != 8 {
		t.Fatalf("DumpAll total = %d items, want 8", total)
	}
}

// classMedian reads a class median the way a node score does: the middle
// of the class's one-bucket RouteStamps list, hottest first.
func classMedian(t *testing.T, c *Cache, classID int) (int64, bool) {
	t.Helper()
	lists, err := c.RouteStamps(classID, 1, func([]byte) int { return 0 })
	if err != nil || len(lists[0]) == 0 {
		return 0, false
	}
	return lists[0][len(lists[0])/2], true
}

func TestMedianTimestamp(t *testing.T) {
	c, _ := newTestCache(t, 1)
	fill(t, c, 9, "key")
	median, ok := classMedian(t, c, 0)
	if !ok {
		t.Fatal("median missing for populated class")
	}
	metas, err := c.DumpClass(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	// With 9 items the median (index 4) is key-0004 counting from the
	// hottest (key-0008).
	if want := metas[4].LastAccess.UnixNano(); median != want {
		t.Fatalf("median = %d, want the MRU-position-4 timestamp %d", median, want)
	}
}

func TestMedianTimestampEmpty(t *testing.T) {
	c, _ := newTestCache(t, 1)
	if _, ok := classMedian(t, c, 0); ok {
		t.Fatal("median reported for empty class")
	}
	if _, err := c.RouteStamps(-5, 1, func([]byte) int { return 0 }); err == nil {
		t.Fatal("stamps reported for invalid class")
	}
}

func TestSlabPageWeightsSumToOne(t *testing.T) {
	c, _ := newTestCache(t, 8)
	fill(t, c, 100, "small")
	big := bytes.Repeat([]byte("x"), 4000)
	for i := 0; i < 600; i++ { // forces several pages in the big class
		if err := c.Set(fmt.Sprintf("big-%04d", i), big); err != nil {
			t.Fatal(err)
		}
	}
	weights := c.SlabPageWeights()
	if len(weights) < 2 {
		t.Fatalf("weights cover %d classes, want >= 2", len(weights))
	}
	sum := 0.0
	for _, w := range weights {
		if w <= 0 || w > 1 {
			t.Fatalf("weight %v out of (0, 1]", w)
		}
		sum += w
	}
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("weights sum to %v, want 1", sum)
	}
}

func TestSlabPageWeightsEmpty(t *testing.T) {
	c, _ := newTestCache(t, 2)
	if w := c.SlabPageWeights(); len(w) != 0 {
		t.Fatalf("weights on empty cache = %v, want empty", w)
	}
}

func TestPopulatedClassesAndClassLen(t *testing.T) {
	c, _ := newTestCache(t, 4)
	fill(t, c, 7, "small")
	if err := c.Set("big", bytes.Repeat([]byte("x"), 2000)); err != nil {
		t.Fatal(err)
	}
	classes := c.PopulatedClasses()
	if len(classes) != 2 {
		t.Fatalf("populated classes = %v, want 2 entries", classes)
	}
	if got := c.ClassLen(classes[0]); got != 7 {
		t.Fatalf("ClassLen(small) = %d, want 7", got)
	}
	if got := c.ClassLen(classes[1]); got != 1 {
		t.Fatalf("ClassLen(big) = %d, want 1", got)
	}
	if got := c.ClassLen(-1); got != 0 {
		t.Fatalf("ClassLen(-1) = %d, want 0", got)
	}
}

func TestClassCapacity(t *testing.T) {
	c, _ := newTestCache(t, 4)
	fill(t, c, 1, "k")
	if got := c.ClassCapacity(0); got != PageSize/MinChunkSize {
		t.Fatalf("ClassCapacity = %d, want %d", got, PageSize/MinChunkSize)
	}
	if got := c.ClassCapacity(5000); got != 0 {
		t.Fatalf("ClassCapacity(out of range) = %d, want 0", got)
	}
}

func TestBatchImportPrependsAtHead(t *testing.T) {
	c, _ := newTestCache(t, 1)
	fill(t, c, 3, "local")
	ts := time.Unix(1_800_000_000, 0)
	pairs := []KV{
		{Key: "mig-hot", Value: []byte("h"), LastAccess: ts.Add(2 * time.Second)},
		{Key: "mig-mid", Value: []byte("m"), LastAccess: ts.Add(time.Second)},
	}
	// Hottest-first slice with reverse=true: mig-hot must end at the head.
	if _, err := c.BatchImport(pairs, true); err != nil {
		t.Fatal(err)
	}
	metas, err := c.DumpClass(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if metas[0].Key != "mig-hot" || metas[1].Key != "mig-mid" {
		t.Fatalf("head order = %q, %q; want mig-hot, mig-mid", metas[0].Key, metas[1].Key)
	}
	if !metas[0].LastAccess.Equal(ts.Add(2 * time.Second)) {
		t.Fatal("import did not preserve the migrated timestamp")
	}
}

func TestBatchImportForwardOrder(t *testing.T) {
	c, _ := newTestCache(t, 1)
	pairs := []KV{
		{Key: "cold", Value: []byte("c"), LastAccess: time.Unix(1, 0)},
		{Key: "hot", Value: []byte("h"), LastAccess: time.Unix(2, 0)},
	}
	// Coldest-first slice with reverse=false: last prepend wins the head.
	if _, err := c.BatchImport(pairs, false); err != nil {
		t.Fatal(err)
	}
	metas, err := c.DumpClass(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if metas[0].Key != "hot" {
		t.Fatalf("head = %q, want hot", metas[0].Key)
	}
}

func TestBatchImportEvictsColdTail(t *testing.T) {
	c, _ := newTestCache(t, 1)
	val := bytes.Repeat([]byte("v"), 16)
	perPage := PageSize / MinChunkSize
	for i := 0; i < perPage; i++ {
		if err := c.Set(fmt.Sprintf("key-%05d", i), val); err != nil {
			t.Fatal(err)
		}
	}
	pairs := []KV{{Key: "migrated", Value: val, LastAccess: time.Unix(2_000_000_000, 0)}}
	if _, err := c.BatchImport(pairs, true); err != nil {
		t.Fatal(err)
	}
	if !c.Contains("migrated") {
		t.Fatal("import lost the migrated item")
	}
	// The coldest local item (key-00000) must have been evicted.
	if c.Contains("key-00000") {
		t.Fatal("import did not evict the cold tail")
	}
	if c.Len() != perPage {
		t.Fatalf("Len = %d, want %d", c.Len(), perPage)
	}
}

func TestBatchImportExistingKeyKeepsFresherCopy(t *testing.T) {
	c, _ := newTestCache(t, 1)
	if err := c.Set("k", []byte("local")); err != nil {
		t.Fatal(err)
	}
	metas, _ := c.DumpClass(0, nil)
	localTS := metas[0].LastAccess

	// An older migrated pair (a replay, or a race the local set won) must
	// not touch the fresher resident copy: neither its timestamp, nor its
	// value, nor its MRU position.
	older := localTS.Add(-time.Hour)
	if _, err := c.BatchImport([]KV{{Key: "k", Value: []byte("migrated"), LastAccess: older}}, true); err != nil {
		t.Fatal(err)
	}
	metas, _ = c.DumpClass(0, nil)
	if !metas[0].LastAccess.Equal(localTS) {
		t.Fatal("import regressed a fresher local timestamp")
	}
	got, _ := c.Peek("k")
	if string(got) != "local" {
		t.Fatalf("value = %q, want the fresher local copy", got)
	}

	// A strictly fresher migrated pair replaces the copy.
	newer := localTS.Add(time.Hour)
	if _, err := c.BatchImport([]KV{{Key: "k", Value: []byte("migrated"), LastAccess: newer}}, true); err != nil {
		t.Fatal(err)
	}
	metas, _ = c.DumpClass(0, nil)
	if !metas[0].LastAccess.Equal(newer) {
		t.Fatal("fresher import did not update the timestamp")
	}
	got, _ = c.Peek("k")
	if string(got) != "migrated" {
		t.Fatalf("value = %q, want the fresher imported copy", got)
	}
}

func TestBatchImportRejectsEmptyKeyAndHugeValue(t *testing.T) {
	c, _ := newTestCache(t, 1)
	if _, err := c.BatchImport([]KV{{Key: ""}}, true); err == nil {
		t.Fatal("want error for empty key")
	}
	if _, err := c.BatchImport([]KV{{Key: "k", Value: make([]byte, PageSize+1)}}, true); err == nil {
		t.Fatal("want error for oversized value")
	}
}

// TestRouteStampsMatchesDumpClass: the routed export files every live item
// of a multi-shard class under its bucket, hottest first, with exactly the
// timestamps DumpClass reports for the same key filter; dropped and
// expired items appear nowhere.
func TestRouteStampsMatchesDumpClass(t *testing.T) {
	clk := newFakeClock()
	c, err := New(8*PageSize, WithClock(clk.Now), WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 600; i++ {
		key := fmt.Sprintf("key-%04d", i)
		var err error
		if i%10 == 0 {
			err = c.SetExpiring(key, []byte("val"), clk.Now().Add(time.Second))
		} else {
			err = c.Set(key, []byte("val"))
		}
		if err != nil {
			t.Fatal(err)
		}
		if i%7 == 0 {
			_, _ = c.Get(fmt.Sprintf("key-%04d", i/2)) // reorder the MRU lists
		}
	}
	clk.Advance(time.Minute) // every i%10 == 0 item is now expired
	bucketOf := func(key string) int {
		switch key[len(key)-1] {
		case '1', '3', '5', '7', '9':
			return 1
		case '2':
			return -1
		default:
			return 0
		}
	}
	got, err := c.RouteStamps(0, 2, func(key []byte) int { return bucketOf(string(key)) })
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("got %d buckets, want 2", len(got))
	}
	for b := range got {
		metas, err := c.DumpClass(0, func(key string) bool { return bucketOf(key) == b })
		if err != nil {
			t.Fatal(err)
		}
		if len(got[b]) != len(metas) {
			t.Fatalf("bucket %d holds %d stamps, DumpClass %d", b, len(got[b]), len(metas))
		}
		for i, m := range metas {
			if got[b][i] != m.LastAccess.UnixNano() {
				t.Fatalf("bucket %d stamp %d = %d, DumpClass %d", b, i, got[b][i], m.LastAccess.UnixNano())
			}
		}
	}
	if len(got[0])+len(got[1]) != 600-60-60 { // 60 expired, 60 end in '2'
		t.Fatalf("routed %d items, want %d", len(got[0])+len(got[1]), 600-60-60)
	}
	if _, err := c.RouteStamps(len(c.ChunkSizes()), 1, func([]byte) int { return 0 }); err == nil {
		t.Fatal("want an error for an out-of-range class")
	}
}

// TestImportRefusedCounted: a batch import into a class that can get no
// chunk — the only page is full of another class, nothing of its own to
// evict — drops its pairs, and every dropped pair is counted; an import
// that evicts within its own full class is not a refusal.
func TestImportRefusedCounted(t *testing.T) {
	c, _ := newTestCache(t, 1)
	small := []byte("v")
	perPage := PageSize / MinChunkSize
	for i := 0; i < perPage; i++ {
		if err := c.Set(fmt.Sprintf("key-%05d", i), small); err != nil {
			t.Fatal(err)
		}
	}
	ts := time.Unix(2_000_000_000, 0)
	big := bytes.Repeat([]byte("B"), 4*MinChunkSize)
	refused := []KV{
		{Key: "big-1", Value: big, LastAccess: ts},
		{Key: "big-2", Value: big, LastAccess: ts},
		{Key: "big-3", Value: big, LastAccess: ts},
	}
	n, err := c.BatchImport(refused, true)
	if err != nil || n != 0 {
		t.Fatalf("import into a page-less class = %d, %v; want 0, nil", n, err)
	}
	if got := c.Stats().ImportRefused; got != 3 {
		t.Fatalf("ImportRefused = %d, want 3", got)
	}
	n, err = c.BatchImport([]KV{{Key: "small", Value: small, LastAccess: ts}}, true)
	if err != nil || n != 1 {
		t.Fatalf("import into the full class = %d, %v; want 1, nil", n, err)
	}
	if got := c.Stats().ImportRefused; got != 3 {
		t.Fatalf("ImportRefused after an evicting import = %d, want 3", got)
	}
}
