package cache

import "slices"

// K-way merge of per-shard MRU runs. The sharded engine stores each slab
// class as one MRU list per shard; the ElMem dump command must still emit
// one globally recency-ordered list (hottest first), because FuseCache's
// median-of-medians selection assumes its k input lists are sorted by
// hotness (Section IV-A). Each shard's run is snapshotted under its own
// lock, normalized to non-increasing timestamp order (batch import can
// leave a list locally out of order by design — imported items keep their
// original timestamps but land at the head), and merged through a small
// binary heap keyed on the run heads.

// sortRun normalizes one shard's snapshot to non-increasing timestamp
// order. The stable sort keeps list order for equal timestamps, so a
// single-shard cache dumps exactly its MRU list.
func sortRun(run []ItemMeta) {
	slices.SortStableFunc(run, func(a, b ItemMeta) int { return b.LastAccess.Compare(a.LastAccess) })
}

// mergeRuns k-way merges runs — each non-increasing in timestamp — into
// one globally non-increasing slice. Ties break toward the lower run index
// for determinism. O(N log k) for N total items over k runs.
func mergeRuns(runs [][]ItemMeta) []ItemMeta {
	live := runs[:0]
	total := 0
	for _, r := range runs {
		if len(r) > 0 {
			live = append(live, r)
			total += len(r)
		}
	}
	if total == 0 {
		return nil
	}
	if len(live) == 1 {
		return live[0]
	}

	out := make([]ItemMeta, 0, total)
	pos := make([]int, len(live))
	// h is a max-heap of run indices ordered by each run's current head.
	h := make([]int, len(live))
	for i := range h {
		h[i] = i
	}
	hotter := func(a, b int) bool {
		ta, tb := live[a][pos[a]].LastAccess, live[b][pos[b]].LastAccess
		if ta.Equal(tb) {
			return a < b
		}
		return ta.After(tb)
	}
	var siftDown func(i, n int)
	siftDown = func(i, n int) {
		for {
			l, r := 2*i+1, 2*i+2
			best := i
			if l < n && hotter(h[l], h[best]) {
				best = l
			}
			if r < n && hotter(h[r], h[best]) {
				best = r
			}
			if best == i {
				return
			}
			h[i], h[best] = h[best], h[i]
			i = best
		}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(i, len(h))
	}

	n := len(h)
	for n > 0 {
		top := h[0]
		out = append(out, live[top][pos[top]])
		pos[top]++
		if pos[top] == len(live[top]) {
			h[0] = h[n-1]
			n--
		}
		siftDown(0, n)
	}
	return out
}
