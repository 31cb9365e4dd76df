package cache

// Tests for the list-order exports: TopMeta must select the globally
// hottest items without touching values, FetchTopStream must read the
// same selection back with its values, AppendPicks must copy values,
// reuse buffers and skip vanished keys, CutBatches must cut identically
// every time, and FetchTopStream must respect both batch bounds while
// preserving the coldest-first emission order the snapshot restore
// depends on.

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// populateStream inserts n keys with strictly increasing recency, so
// key i is hotter than key j whenever i > j.
func populateStream(t *testing.T, c *Cache, n, valLen int) {
	t.Helper()
	val := make([]byte, valLen)
	for i := 0; i < n; i++ {
		if err := c.Set(fmt.Sprintf("stream-key-%05d", i), val); err != nil {
			t.Fatal(err)
		}
	}
}

// topPairs collects FetchTopStream's output, copied out of the reused
// batch buffers, hottest first.
func topPairs(t *testing.T, c *Cache, classID, count int, filter func(string) bool) []KV {
	t.Helper()
	var out []KV
	if _, err := c.FetchTopStream(classID, count, filter, 7, 0, func(b StreamBatch) error {
		for _, p := range b.Pairs {
			p.Value = slices.Clone(p.Value)
			out = append(out, p)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	slices.Reverse(out)
	return out
}

// TestTopMetaFetchTopStream: the selection is the hottest min(count,
// matching) items in MRU order, and the streamed pairs agree with it entry
// for entry — key, timestamp, and ValueSize == len(Value).
func TestTopMetaFetchTopStream(t *testing.T) {
	c, _ := newTestCache(t, 2)
	populateStream(t, c, 500, 10)
	classID := c.PopulatedClasses()[0]
	even := func(key string) bool {
		var n int
		fmt.Sscanf(key, "stream-key-%d", &n)
		return n%2 == 0
	}
	for _, tc := range []struct {
		name   string
		count  int
		filter func(string) bool
		want   int
		step   int // key index distance between consecutive selections
	}{
		{"one", 1, nil, 1, 1},
		{"seven", 7, nil, 7, 1},
		{"half", 250, nil, 250, 1},
		{"exact", 500, nil, 500, 1},
		{"over", 1000, nil, 500, 1},
		{"filtered", 5, even, 5, 2},
		{"filtered-all", 1000, even, 250, 2},
	} {
		metas, err := c.TopMeta(classID, tc.count, tc.filter)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if len(metas) != tc.want {
			t.Fatalf("%s: selected %d, want %d", tc.name, len(metas), tc.want)
		}
		hottest := 499
		if tc.filter != nil {
			hottest = 498
		}
		pairs := topPairs(t, c, classID, tc.count, tc.filter)
		if len(pairs) != len(metas) {
			t.Fatalf("%s: %d pairs for %d metas", tc.name, len(pairs), len(metas))
		}
		for i, m := range metas {
			if want := fmt.Sprintf("stream-key-%05d", hottest-i*tc.step); m.Key != want {
				t.Fatalf("%s: selection[%d] = %q, want %q", tc.name, i, m.Key, want)
			}
			if pairs[i].Key != m.Key || !pairs[i].LastAccess.Equal(m.LastAccess) {
				t.Fatalf("%s: pair %d = %q@%v, meta %q@%v", tc.name, i, pairs[i].Key, pairs[i].LastAccess, m.Key, m.LastAccess)
			}
			if m.ValueSize != len(pairs[i].Value) {
				t.Fatalf("%s: ValueSize %d, value is %d bytes", tc.name, m.ValueSize, len(pairs[i].Value))
			}
		}
	}

	// Edge cases: a non-positive count selects nothing, a bad class errors.
	if metas, err := c.TopMeta(classID, 0, nil); err != nil || metas != nil {
		t.Fatalf("TopMeta(0 count) = %v, %v; want nil, nil", metas, err)
	}
	if _, err := c.TopMeta(-1, 1, nil); err == nil {
		t.Fatal("want error for bad class")
	}
	if got := c.AppendPicks(nil, nil); got != nil {
		t.Fatalf("AppendPicks(no picks) = %v, want nil", got)
	}
}

// TestAppendPicksCopiesValues: read-back values never alias live cache
// memory.
func TestAppendPicksCopiesValues(t *testing.T) {
	c, _ := newTestCache(t, 1)
	if err := c.Set("k", []byte("orig")); err != nil {
		t.Fatal(err)
	}
	kvs := c.AppendPicks(nil, pickAll(t, c, 0))
	if len(kvs) != 1 || string(kvs[0].Value) != "orig" {
		t.Fatalf("pairs = %+v", kvs)
	}
	kvs[0].Value[0] = 'X'
	got, _ := c.Peek("k")
	if string(got) != "orig" {
		t.Fatal("AppendPicks exposed internal value storage")
	}
}

// TestCutBatches pins the batch cutter: both bounds, the oversized-pair
// rule, selections cut coldest-first with batches spanning them, and — the
// resume-critical property — identical cuts on a second call.
func TestCutBatches(t *testing.T) {
	// sel builds a hottest-first selection whose i-th coldest pick is
	// sizes[i] payload bytes. A pick holds no key, so its name — prefix
	// and position — rides in Hash.
	sel := func(prefix byte, sizes ...int) []Pick {
		out := make([]Pick, len(sizes))
		for i, sz := range sizes {
			out[len(sizes)-1-i] = Pick{Hash: uint64(prefix)<<32 | uint64(i), Size: uint32(sz)}
		}
		return out
	}
	name := func(p Pick) string { return fmt.Sprintf("%c%d", byte(p.Hash>>32), uint32(p.Hash)) }
	for _, tc := range []struct {
		name               string
		sels               [][]Pick
		maxPairs, maxBytes int
		want               []string // each batch as "keys…/bytes"
	}{
		{"pair bound", [][]Pick{sel('a', 10, 10, 10, 10, 10)}, 2, 0,
			[]string{"a0 a1/20", "a2 a3/20", "a4/10"}},
		{"byte bound", [][]Pick{sel('a', 10, 10, 10, 10, 10)}, 0, 25,
			[]string{"a0 a1/20", "a2 a3/20", "a4/10"}},
		{"byte bound exact fit", [][]Pick{sel('a', 10, 10, 10)}, 0, 20,
			[]string{"a0 a1/20", "a2/10"}},
		{"both bounds, tighter wins", [][]Pick{sel('a', 10, 10, 30, 5, 5, 5, 5, 5)}, 3, 35,
			[]string{"a0 a1/20", "a2 a3/35", "a4 a5 a6/15", "a7/5"}},
		{"single oversized pair", [][]Pick{sel('a', 5, 100, 5)}, 0, 20,
			[]string{"a0/5", "a1/100", "a2/5"}},
		{"unbounded", [][]Pick{sel('a', 10, 10, 10)}, 0, 0,
			[]string{"a0 a1 a2/30"}},
		{"batch spans selections", [][]Pick{sel('a', 10, 10, 10), nil, sel('b', 10, 10)}, 2, 0,
			[]string{"a0 a1/20", "a2 b0/20", "b1/10"}},
		{"empty selection", [][]Pick{nil, {}}, 2, 20, nil},
		{"no selections", nil, 2, 20, nil},
	} {
		cut := func() []string {
			var got []string
			err := CutBatches(tc.sels, tc.maxPairs, tc.maxBytes, func(batch []Pick, bytes int) error {
				keys := make([]string, len(batch))
				for i, p := range batch {
					keys[i] = name(p)
				}
				got = append(got, fmt.Sprintf("%s/%d", strings.Join(keys, " "), bytes))
				return nil
			})
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			return got
		}
		first := cut()
		if !reflect.DeepEqual(first, tc.want) {
			t.Fatalf("%s: cut %q, want %q", tc.name, first, tc.want)
		}
		if again := cut(); !reflect.DeepEqual(again, first) {
			t.Fatalf("%s: second cut %q differs from first %q", tc.name, again, first)
		}
	}

	// An emit error stops the cut and is returned as-is.
	stop := fmt.Errorf("stop")
	calls := 0
	err := CutBatches([][]Pick{sel('a', 10, 10, 10)}, 1, 0, func([]Pick, int) error {
		calls++
		return stop
	})
	if err != stop || calls != 1 {
		t.Fatalf("emit error: got %v after %d calls, want the emit error after 1", err, calls)
	}
}

// TestAppendPicksSkipsVanishedKeys: a picked key deleted before the read
// back is left out, with no placeholder in its place.
func TestAppendPicksSkipsVanishedKeys(t *testing.T) {
	c, _ := newTestCache(t, 2)
	populateStream(t, c, 50, 10)
	classID := c.PopulatedClasses()[0]
	picks := pickAll(t, c, classID)
	metas, err := c.TopMeta(classID, 50, nil)
	if err != nil || len(metas) != len(picks) {
		t.Fatalf("TopMeta = %d metas (%v), %d picks", len(metas), err, len(picks))
	}
	// Delete every fifth selected key between selection and fetch.
	deleted := make(map[string]bool)
	for i := 0; i < len(metas); i += 5 {
		c.Delete(metas[i].Key)
		deleted[metas[i].Key] = true
	}
	pairs := c.AppendPicks(nil, picks)
	if len(pairs) != len(picks)-len(deleted) {
		t.Fatalf("got %d pairs, want %d", len(pairs), len(picks)-len(deleted))
	}
	for _, p := range pairs {
		if p.Key == "" {
			t.Fatal("vanished placeholder leaked into the result")
		}
		if deleted[p.Key] {
			t.Fatalf("deleted key %q fetched", p.Key)
		}
		if len(p.Value) != 10 {
			t.Fatalf("key %q value %d bytes, want 10", p.Key, len(p.Value))
		}
	}
}

// TestAppendPicksReusesBuffers: looping `buf = AppendPicks(buf[:0], batch)`
// must stop allocating values once the largest batch has been seen — the
// property that keeps the streaming sender's steady state at a fixed
// handful of allocations a batch.
func TestAppendPicksReusesBuffers(t *testing.T) {
	c, _ := newTestCache(t, 2)
	populateStream(t, c, 64, 32)
	picks := pickAll(t, c, c.PopulatedClasses()[0])
	buf := c.AppendPicks(nil, picks) // warm: allocates pairs and values
	allocs := testing.AllocsPerRun(20, func() {
		buf = c.AppendPicks(buf[:0], picks)
	})
	// The per-shard grouping and the batch's shared key buffer allocate;
	// what must NOT allocate is the pairs themselves or their values.
	if allocs > 5 {
		t.Fatalf("steady-state AppendPicks allocates %.0f objects/op", allocs)
	}
	if len(buf) != 64 {
		t.Fatalf("reused fetch returned %d pairs, want 64", len(buf))
	}
}

func TestFetchTopStreamBatchBounds(t *testing.T) {
	c, _ := newTestCache(t, 2)
	populateStream(t, c, 300, 20)
	classID := c.PopulatedClasses()[0]

	const maxPairs, maxBytes = 32, 1 << 10
	var (
		batches     int
		total       int
		lastSeq     uint64
		prevHottest string
	)
	n, err := c.FetchTopStream(classID, 300, nil, maxPairs, maxBytes, func(b StreamBatch) error {
		batches++
		if b.Seq != lastSeq+1 {
			t.Fatalf("batch seq %d after %d", b.Seq, lastSeq)
		}
		lastSeq = b.Seq
		if len(b.Pairs) > maxPairs {
			t.Fatalf("batch %d has %d pairs, cap %d", b.Seq, len(b.Pairs), maxPairs)
		}
		if b.Bytes > maxBytes {
			t.Fatalf("batch %d is %d bytes, cap %d", b.Seq, b.Bytes, maxBytes)
		}
		// Coldest-first within the batch…
		for i := 1; i < len(b.Pairs); i++ {
			if b.Pairs[i].LastAccess.Before(b.Pairs[i-1].LastAccess) {
				t.Fatalf("batch %d out of coldest-first order at %d", b.Seq, i)
			}
		}
		// …and across batches: this batch's coldest is no colder than the
		// previous batch's hottest.
		if prevHottest != "" && b.Pairs[0].Key <= prevHottest {
			// Keys are zero-padded and inserted cold→hot, so lexicographic
			// order tracks recency.
			t.Fatalf("batch %d starts at %q, not hotter than previous hottest %q", b.Seq, b.Pairs[0].Key, prevHottest)
		}
		prevHottest = b.Pairs[len(b.Pairs)-1].Key
		total += len(b.Pairs)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 300 || total != 300 {
		t.Fatalf("streamed %d (callback saw %d), want 300", n, total)
	}
	if batches < 300/maxPairs {
		t.Fatalf("only %d batches, bounds not applied", batches)
	}
}

func TestFetchTopStreamEmptyClassAndErrors(t *testing.T) {
	c, _ := newTestCache(t, 1)
	n, err := c.FetchTopStream(0, 10, nil, 4, 0, func(StreamBatch) error {
		t.Fatal("callback fired for an empty class")
		return nil
	})
	if err != nil || n != 0 {
		t.Fatalf("empty stream = %d, %v", n, err)
	}
	if _, err := c.FetchTopStream(-1, 10, nil, 4, 0, nil); err == nil {
		t.Fatal("want error for out-of-range class")
	}
}

// TestTopMetaAllocsFollowSelection: the export filter sees key bytes in
// place, so a class scan that rejects most of its items allocates for the
// items it selects — a key string each, plus a fixed handful of slices —
// not for every item it scans.
func TestTopMetaAllocsFollowSelection(t *testing.T) {
	c, err := New(64 * PageSize)
	if err != nil {
		t.Fatal(err)
	}
	const walked, selected = 8000, 800
	populateStream(t, c, walked, 16)
	classID := c.PopulatedClasses()[0]
	keep := func(key string) bool { return key[len(key)-1] == '0' }
	allocs := testing.AllocsPerRun(5, func() {
		metas, err := c.DumpClass(classID, keep)
		if err != nil || len(metas) != selected {
			t.Fatalf("selected %d (err %v), want %d", len(metas), err, selected)
		}
	})
	t.Logf("%d shards: %.0f allocs to select %d of %d items", c.ShardCount(), allocs, selected, walked)
	if allocs > selected+selected/4 {
		t.Errorf("%.0f allocs to select %d of %d items: the scan allocates per rejected item", allocs, selected, walked)
	}
}
