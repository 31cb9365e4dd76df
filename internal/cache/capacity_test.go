package cache

import (
	"errors"
	"maps"
	"testing"

	"repro/internal/workload"
)

// fillPareto stores keys [0, n) in rank order with generalized-Pareto
// value sizes of the paper's ETC model (workload.DefaultPareto*), clamped
// to [minVal, maxVal] through workload.SizeForRank. It returns the first
// store error.
func fillPareto(c *Cache, n, minVal, maxVal int) error {
	val := make([]byte, maxVal)
	for r := 0; r < n; r++ {
		size := workload.SizeForRank(uint64(r), workload.DefaultParetoScale, workload.DefaultParetoShape, minVal, maxVal)
		if err := c.Set(workload.KeyName(uint64(r)), val[:size]); err != nil {
			return err
		}
	}
	return nil
}

// TestETCPopulationFits: a 256 MiB node with default striping stores an
// ETC-shaped population (1 B–8 KiB values, 21 slab classes) far below its
// budget without refusing a set, and holds at most one part-filled page
// per class. Pinning pages to every (shard, class) pair needed 16 × 21
// pages for the same population and refused sets once the 256 were gone.
func TestETCPopulationFits(t *testing.T) {
	c, err := New(256 * PageSize)
	if err != nil {
		t.Fatal(err)
	}
	const keys = 40_000
	if err := fillPareto(c, keys, 1, 8192); err != nil {
		t.Fatalf("ETC population refused: %v (ErrOutOfMemory: %t)", err, errors.Is(err, ErrOutOfMemory))
	}
	if c.Len() != keys {
		t.Fatalf("Len = %d, want %d", c.Len(), keys)
	}
	st := c.Stats()
	classes := len(c.PopulatedClasses())
	if classes != 21 {
		t.Fatalf("population spans %d classes, want ETC's 21", classes)
	}
	bound := int((st.BytesUsed+PageSize-1)/PageSize) + classes
	t.Logf("%d shards, %d keys: %d pages assigned for %d chunk bytes over %d classes (bound %d)",
		c.ShardCount(), keys, st.AssignedPages, st.BytesUsed, classes, bound)
	if st.AssignedPages > bound {
		t.Errorf("%d pages assigned, want ≤ ⌈chunk bytes/PageSize⌉ + classes = %d", st.AssignedPages, bound)
	}
}

// TestPageSplitIndependentOfShards: how a node's pages split across slab
// classes does not depend on its lock striping. A 32 MiB node (four
// shards) fed the scale-in/out benchmark's value shape (94–245 B, three
// classes) until it evicts ends with exactly the per-class pages of a
// single-shard node on the same feed; pinning a page to every (shard,
// class) pair committed 12 of the 32 pages evenly before demand spoke.
func TestPageSplitIndependentOfShards(t *testing.T) {
	split := func(opts ...Option) map[int]int {
		c, err := New(32*PageSize, opts...)
		if err != nil {
			t.Fatal(err)
		}
		if err := fillPareto(c, 525_000, 94, 245); err != nil {
			t.Fatal(err)
		}
		pages := make(map[int]int)
		for _, s := range c.Stats().Slabs {
			pages[s.ChunkSize] = s.Pages
		}
		t.Logf("%d shards: %d items, pages per chunk size %v", c.ShardCount(), c.Len(), pages)
		return pages
	}
	striped, single := split(), split(WithShards(1))
	if !maps.Equal(striped, single) {
		t.Errorf("striped node splits pages %v, single-shard node %v", striped, single)
	}
}
