package cache

import (
	"fmt"
)

// Streaming migration producer (phase 3 data plane). Selection is split
// from fetching so a retiring node's extra memory is O(batch), not
// O(hot set):
//
//   - TopMeta picks the top-count items of a class by metadata only
//     (keys + timestamps, no values);
//   - CutBatches cuts a selection coldest-first into batches bounded by
//     pair count and payload bytes, from the metadata alone;
//   - AppendPairs materializes the values for one such batch, taking each
//     touched shard's lock once and reusing the caller's value buffers;
//   - FetchTopStream composes the three and hands each batch to a callback
//     that may retain nothing.

// TopMeta returns the metadata of the globally hottest count live items of
// the class whose keys pass filter (nil = all), in MRU order, without
// materializing a single value. Each shard contributes its own MRU run —
// never more than count entries per slab, so the transient selection cost
// is O(shards × count) metas, each ~40 bytes plus the key — and the runs
// are k-way merged by timestamp: the output is non-increasing in
// LastAccess exactly as the paper's single-list dump is.
//
// filter runs under the shard lock on a view of the key bytes in cache
// memory, before any ItemMeta is built, so a rejected item costs no
// allocation. The view is valid only for the call: filter must not retain
// it.
func (c *Cache) TopMeta(classID, count int, filter func(key string) bool) ([]ItemMeta, error) {
	if classID < 0 || classID >= len(c.classes) {
		return nil, fmt.Errorf("cache: slab class %d out of range", classID)
	}
	if count <= 0 {
		return nil, nil
	}
	nowNano := c.nowNano()
	runs := make([][]ItemMeta, 0, len(c.shards))
	for _, sh := range c.shards {
		var run []ItemMeta
		sh.walkClass(classID, count, nowNano, func(ch []byte) bool {
			if filter != nil && !filter(bview(chKey(ch))) {
				return false
			}
			run = append(run, metaOf(ch, classID))
			return true
		})
		if len(run) == 0 {
			continue
		}
		sortRun(run)
		runs = append(runs, run)
	}
	merged := mergeRuns(runs)
	if len(merged) > count {
		merged = merged[:count]
	}
	return merged, nil
}

// CutBatches cuts selections — each hottest-first, as TopMeta returns
// them — into batches and hands them to emit in order: selections in slice
// order, coldest-first within each, a batch closing once it holds maxPairs
// pairs or the next pair would push its payload (key + value sizes as
// selected) past maxBytes. A bound <= 0 is off; a single oversized pair
// still forms its own batch; a batch may span selections. The batch slice
// is reused across calls to emit.
//
// Boundaries depend on the selection metadata alone, so cutting the same
// selections again yields identical batches — the property a resumable
// sender relies on to skip already-acknowledged sequence numbers.
func CutBatches(sels [][]ItemMeta, maxPairs, maxBytes int, emit func(batch []ItemMeta, bytes int) error) error {
	var batch []ItemMeta
	bytes := 0
	for _, sel := range sels {
		for i := len(sel) - 1; i >= 0; i-- {
			m := sel[i]
			sz := len(m.Key) + m.ValueSize
			if len(batch) > 0 &&
				((maxPairs > 0 && len(batch) >= maxPairs) ||
					(maxBytes > 0 && bytes+sz > maxBytes)) {
				if err := emit(batch, bytes); err != nil {
					return err
				}
				batch, bytes = batch[:0], 0
			}
			batch = append(batch, m)
			bytes += sz
		}
	}
	if len(batch) == 0 {
		return nil
	}
	return emit(batch, bytes)
}

// AppendPairs materializes the current values for metas, appending one KV
// per still-resident key to dst and returning the extended slice. Entries
// whose key has been deleted, evicted, or expired since selection are
// skipped. Spare capacity in dst is reused — including the value buffers
// of previous occupants — so a sender looping over batches with
// `buf = c.AppendPairs(buf[:0], batch)` allocates values only until the
// largest batch has been seen, then runs allocation-free.
//
// The fetch fan-out mirrors BatchImport's write fan-out: metas are grouped
// by their key's shard and each shard's group is copied out under one lock
// acquisition.
func (c *Cache) AppendPairs(dst []KV, metas []ItemMeta) []KV {
	if len(metas) == 0 {
		return dst
	}
	start := len(dst)
	// Extend dst by len(metas) placeholders, reusing spare capacity (and
	// the value buffers parked there) before growing.
	for range metas {
		if len(dst) < cap(dst) {
			dst = dst[:len(dst)+1]
		} else {
			dst = append(dst, KV{})
		}
	}
	out := dst[start:]
	groups := make([][]int, len(c.shards))
	for i, m := range metas {
		si := c.shardIndexFor(m.Key)
		groups[si] = append(groups[si], i)
	}
	nowNano := c.nowNano()
	for si, idxs := range groups {
		if len(idxs) == 0 {
			continue
		}
		sh := c.shards[si]
		sh.mu.Lock()
		for _, i := range idxs {
			key := metas[i].Key
			kb := sbytes(key)
			tid := c.resolveTenant(kb)
			ch, ok := sh.peekLocked(shardHashT(tid, kb), tid, kb, nowNano)
			if !ok {
				out[i].Key = "" // vanished since selection
				continue
			}
			out[i].Key = key
			out[i].Value = append(out[i].Value[:0], chValue(ch)...)
			out[i].Flags = chFlags(ch)
			out[i].LastAccess = fromNano(chAccess(ch))
			out[i].Expiry = fromNano(chExpire(ch))
		}
		sh.mu.Unlock()
	}
	// Compact away vanished entries by swapping, so the skipped slots'
	// value buffers stay parked in the spare capacity for reuse.
	w := start
	for r := start; r < len(dst); r++ {
		if dst[r].Key == "" {
			continue
		}
		if w != r {
			dst[w], dst[r] = dst[r], dst[w]
		}
		w++
	}
	return dst[:w]
}

// StreamBatch is one bounded batch yielded by FetchTopStream.
type StreamBatch struct {
	// Seq numbers batches from 1 in emission order.
	Seq uint64
	// Pairs hold the batch coldest-first; the slice and its value buffers
	// are reused across batches and must not be retained by the callback.
	Pairs []KV
	// Bytes is the payload size of the batch: sum of key + value lengths
	// as selected (vanished entries still counted, keeping boundaries
	// stable across retries).
	Bytes int
}

// FetchTopStream selects the hottest count items of the class (TopMeta,
// whose filter contract applies) and streams them to emit coldest-first in CutBatches batches. Values are
// fetched per batch, so the caller's peak extra memory is one batch, not
// the whole selection. It returns the total number of pairs emitted.
func (c *Cache) FetchTopStream(classID, count int, filter func(key string) bool, maxPairs, maxBytes int, emit func(StreamBatch) error) (int, error) {
	metas, err := c.TopMeta(classID, count, filter)
	if err != nil {
		return 0, err
	}
	var (
		total int
		buf   []KV
		seq   uint64
	)
	err = CutBatches([][]ItemMeta{metas}, maxPairs, maxBytes, func(batch []ItemMeta, bytes int) error {
		seq++
		buf = c.AppendPairs(buf[:0], batch)
		total += len(buf)
		return emit(StreamBatch{Seq: seq, Pairs: buf, Bytes: bytes})
	})
	return total, err
}
