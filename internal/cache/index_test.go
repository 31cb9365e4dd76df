package cache

import (
	"fmt"
	"math/rand"
	"testing"
)

// indexHarness pairs a keyIndex with an arena so lookups can compare key
// bytes, plus a map reference model.
type indexHarness struct {
	lh   *listHarness
	idx  keyIndex
	refs map[string]itemRef // model: key → ref currently inserted
}

func newIndexHarness(t *testing.T) *indexHarness {
	lh := newListHarness(t)
	return &indexHarness{lh: lh, refs: map[string]itemRef{}}
}

func (h *indexHarness) insert(t *testing.T, key string) {
	t.Helper()
	if _, dup := h.refs[key]; dup {
		t.Fatalf("harness misuse: %q already inserted", key)
	}
	ref := h.lh.alloc(t, key)
	h.refs[key] = ref
	h.idx.insert(shardHash(key), ref)
}

func (h *indexHarness) delete(t *testing.T, key string) {
	t.Helper()
	ref, ok := h.refs[key]
	if !ok {
		t.Fatalf("harness misuse: %q not inserted", key)
	}
	delete(h.refs, key)
	if !h.idx.delete(shardHash(key), ref) {
		t.Fatalf("delete(%q) found nothing", key)
	}
}

// check verifies the index agrees with the model exactly: every model key
// resolves to its ref, absent keys miss, and counts match.
func (h *indexHarness) check(t *testing.T, absent []string) {
	t.Helper()
	for key, want := range h.refs {
		got, _, ok := h.idx.lookup(shardHash(key), 0, sbytes(key), &h.lh.pool)
		if !ok || got != want {
			t.Fatalf("lookup(%q) = (%v,%v), want (%v,true) [live=%d dead=%d old=%v]",
				key, got, ok, want, h.idx.live, h.idx.dead, h.idx.old != nil)
		}
	}
	for _, key := range absent {
		if _, _, ok := h.idx.lookup(shardHash(key), 0, sbytes(key), &h.lh.pool); ok {
			t.Fatalf("lookup(%q) hit, want miss", key)
		}
	}
	if h.idx.count != len(h.refs) {
		t.Fatalf("count = %d, model has %d", h.idx.count, len(h.refs))
	}
}

func TestIndexBasicInsertLookupDelete(t *testing.T) {
	h := newIndexHarness(t)
	for i := 0; i < 100; i++ {
		h.insert(t, fmt.Sprintf("key-%04d", i))
	}
	h.check(t, []string{"nope", "key-0100"})
	for i := 0; i < 100; i += 2 {
		h.delete(t, fmt.Sprintf("key-%04d", i))
	}
	h.check(t, []string{"key-0000", "key-0098"})
}

// TestIndexGrowthKeepsEntries pushes far past the initial table size so
// the index grows several times (and drains incrementally) mid-insert.
func TestIndexGrowthKeepsEntries(t *testing.T) {
	h := newIndexHarness(t)
	for i := 0; i < 5000; i++ {
		h.insert(t, fmt.Sprintf("grow-%05d", i))
		if i%997 == 0 {
			h.check(t, nil)
		}
	}
	h.check(t, []string{"grow-05000"})
	if h.idx.old != nil {
		// Keep mutating until the parked table fully drains.
		for i := 0; h.idx.old != nil && i < 5000; i++ {
			key := fmt.Sprintf("drain-%05d", i)
			h.insert(t, key)
			h.delete(t, key)
		}
		if h.idx.old != nil {
			t.Fatal("parked table never drained")
		}
	}
	h.check(t, nil)
}

// TestIndexDeleteDuringMigration interleaves deletes with an in-progress
// incremental rehash: a key must be findable (and deletable) whichever
// table currently holds it, and a deleted key must stay dead — the parked
// table must not resurrect it.
func TestIndexDeleteDuringMigration(t *testing.T) {
	h := newIndexHarness(t)
	// Fill to just past a growth trigger so old is parked.
	n := 0
	for h.idx.old == nil {
		h.insert(t, fmt.Sprintf("mig-%05d", n))
		n++
	}
	if h.idx.oldPos >= len(h.idx.old) {
		t.Fatal("test setup: old already drained")
	}
	// Delete every key while migration is mid-flight, oldest first (these
	// are most likely still parked).
	for i := 0; i < n; i++ {
		h.delete(t, fmt.Sprintf("mig-%05d", i))
	}
	absent := make([]string, n)
	for i := range absent {
		absent[i] = fmt.Sprintf("mig-%05d", i)
	}
	h.check(t, absent)
}

// TestIndexTombstoneChurn re-inserts and deletes the same keys many times:
// tombstone accumulation must neither lose entries nor wedge the table
// (grow purges tombstones by rebuilding at ≤1/2 load).
func TestIndexTombstoneChurn(t *testing.T) {
	h := newIndexHarness(t)
	const keys = 64
	for round := 0; round < 200; round++ {
		for i := 0; i < keys; i++ {
			h.insert(t, fmt.Sprintf("churn-%02d", i))
		}
		for i := 0; i < keys; i++ {
			h.delete(t, fmt.Sprintf("churn-%02d", i))
		}
	}
	h.check(t, []string{"churn-00"})
	if len(h.idx.slots) > 4096 {
		t.Errorf("table ballooned to %d slots for a %d-key working set: tombstones not being purged", len(h.idx.slots), keys)
	}
}

// TestIndexRandomChurnVsModel drives random insert/delete/lookup traffic
// against the map model, through multiple growth and drain cycles.
func TestIndexRandomChurnVsModel(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	h := newIndexHarness(t)
	var present []string
	seq := 0
	for op := 0; op < 30000; op++ {
		switch r := rng.Intn(10); {
		case r < 6 || len(present) == 0: // insert new
			key := fmt.Sprintf("rk-%06d", seq)
			seq++
			h.insert(t, key)
			present = append(present, key)
		case r < 9: // delete random present
			i := rng.Intn(len(present))
			h.delete(t, present[i])
			present[i] = present[len(present)-1]
			present = present[:len(present)-1]
		default: // point lookup of a random present key
			key := present[rng.Intn(len(present))]
			got, _, ok := h.idx.lookup(shardHash(key), 0, sbytes(key), &h.lh.pool)
			if !ok || got != h.refs[key] {
				t.Fatalf("op %d: lookup(%q) = (%v,%v), want (%v,true)", op, key, got, ok, h.refs[key])
			}
		}
	}
	h.check(t, []string{"rk-none"})
}

// TestIndexReset verifies FlushAll's path drops everything including a
// parked table.
func TestIndexReset(t *testing.T) {
	h := newIndexHarness(t)
	for i := 0; i < 300; i++ {
		h.insert(t, fmt.Sprintf("r-%03d", i))
	}
	h.idx.reset()
	h.refs = map[string]itemRef{}
	h.check(t, []string{"r-000", "r-299"})
	// The reset index must accept fresh inserts.
	h.insert(t, "after-reset")
	h.check(t, nil)
}

// shardHash is the untenanted FNV-1a routing hash of a string key.
func shardHash(key string) uint64 {
	h := uint64(fnvOffset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= fnvPrime64
	}
	return h ^ h>>32
}
