package cache

import (
	"fmt"
	"testing"
	"time"
)

// Regression tests for the batch-import replay bug the chaos harness's
// fault model targets: the network delivers ImportData at-least-once, so
// a batch can arrive again after other writes landed. The old import
// treated an already-resident key as an update — overwriting the value
// and moveToFront-ing the item — so every replayed pair was re-hoisted to
// the MRU head, inflating its position past anything that arrived in
// between. An equal-or-older replay must be a byte-for-byte no-op.

// classOrder flattens a class's per-shard MRU lists into one key slice
// per shard for order comparison.
func classOrder(t *testing.T, c *Cache, classID int) [][]string {
	t.Helper()
	shards, err := c.ClassOrderByShard(classID)
	if err != nil {
		t.Fatal(err)
	}
	out := make([][]string, len(shards))
	for si, list := range shards {
		for _, it := range list {
			out[si] = append(out[si], it.Key)
		}
	}
	return out
}

func equalOrder(a, b [][]string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

// TestBatchImportReplayKeepsMRUPositions: import a batch, land a fresher
// local write, then replay the batch. The replay must not move anything —
// in particular it must not hoist the replayed items over the fresher
// write that arrived in between.
func TestBatchImportReplayKeepsMRUPositions(t *testing.T) {
	c, err := New(8 * PageSize) // single shard: position checks read one list
	if err != nil {
		t.Fatal(err)
	}
	base := time.Unix(1_700_000_000, 0)
	batch := []KV{
		{Key: "mig-hot", Value: []byte("vvvv-hot"), LastAccess: base.Add(3 * time.Second)},
		{Key: "mig-warm", Value: []byte("vvv-warm"), LastAccess: base.Add(2 * time.Second)},
		{Key: "mig-cold", Value: []byte("vvv-cold"), LastAccess: base.Add(time.Second)},
	}
	if n, err := c.BatchImport(batch, true); err != nil || n != 3 {
		t.Fatalf("import = %d, %v", n, err)
	}
	classID, _, err := c.classForItem(len("mig-hot"), len("vvvv-hot"))
	if err != nil {
		t.Fatal(err)
	}

	// A local write lands after the import; same class, so it takes the
	// MRU head of the same list.
	if err := c.SetBytes([]byte("local-x"), []byte("vvvvvvvv"), 0, time.Time{}); err != nil {
		t.Fatal(err)
	}
	before := classOrder(t, c, classID)
	if before[0][0] != "local-x" {
		t.Fatalf("head before replay = %q, want the fresh local write", before[0][0])
	}

	// The sender's retry replays the identical batch.
	if n, err := c.BatchImport(batch, true); err != nil || n != 3 {
		t.Fatalf("replay = %d, %v", n, err)
	}
	after := classOrder(t, c, classID)
	if !equalOrder(before, after) {
		t.Fatalf("replay moved items:\nbefore %v\nafter  %v", before, after)
	}
}

// TestBatchImportReplayIdempotentUnderInterleaving drives the same
// scenario through many interleavings: N replays with local writes mixed
// in. Whatever the interleaving, replaying already-landed batches must
// never change list order, timestamps, or values.
func TestBatchImportReplayIdempotentUnderInterleaving(t *testing.T) {
	mk := func() (*Cache, []KV, int) {
		c, err := New(8 * PageSize)
		if err != nil {
			t.Fatal(err)
		}
		base := time.Unix(1_700_000_000, 0)
		var batch []KV
		for i := 0; i < 6; i++ {
			batch = append(batch, KV{
				Key:        fmt.Sprintf("mig%02d", i),
				Value:      []byte(fmt.Sprintf("value-%02d", i)),
				LastAccess: base.Add(time.Duration(10-i) * time.Second), // MRU order
			})
		}
		if _, err := c.BatchImport(batch, true); err != nil {
			t.Fatal(err)
		}
		classID, _, err := c.classForItem(5, 8)
		if err != nil {
			t.Fatal(err)
		}
		return c, batch, classID
	}

	// Control: the same local writes with no replays.
	control, _, classID := mk()
	for i := 0; i < 4; i++ {
		if err := control.SetBytes([]byte(fmt.Sprintf("loc%02d", i)), []byte("value-xx"), 0, time.Time{}); err != nil {
			t.Fatal(err)
		}
	}
	want := classOrder(t, control, classID)

	// Replayed: interleave full and partial replays between the writes.
	replayed, batch, _ := mk()
	for i := 0; i < 4; i++ {
		if err := replayed.SetBytes([]byte(fmt.Sprintf("loc%02d", i)), []byte("value-xx"), 0, time.Time{}); err != nil {
			t.Fatal(err)
		}
		part := batch[i%len(batch):]
		if _, err := replayed.BatchImport(part, true); err != nil {
			t.Fatal(err)
		}
	}
	got := classOrder(t, replayed, classID)
	if !equalOrder(want, got) {
		t.Fatalf("replays perturbed MRU order:\nwant %v\ngot  %v", want, got)
	}
	for _, p := range batch {
		val, ok := replayed.Peek(p.Key)
		if !ok || string(val) != string(p.Value) {
			t.Fatalf("%s = %q, %v after replays", p.Key, val, ok)
		}
	}
}
