package cache

import "slices"

// The list-order exports, read through the page-order scanner (scan.go):
//
//   - TopMeta picks the top-count items of a class (RoutePicks into one
//     bucket, cut to count) and builds metadata (keys + timestamps, no
//     values) for the picks it keeps;
//   - CutBatches cuts picks coldest-first into batches bounded by pair
//     count and payload bytes, from the picks alone;
//   - FetchTopStream picks like TopMeta, cuts with CutBatches and reads
//     each batch's values with AppendPicks — the migration sender's own
//     read — handing every batch to a callback that may retain nothing.
//     The snapshot writer streams through it, so its extra memory is the
//     picks plus one batch.
//
// Every export orders a class the same way: hottest first by stamp, equal
// stamps by key hash (RoutePicks).

// topPicks returns the picks of the hottest count live items of the class
// whose keys pass filter (nil = all), hottest first. filter sees a view of
// the key bytes in cache memory, valid only for the call, and runs with
// every shard lock held: it must not retain the key or call back into the
// cache.
func (c *Cache) topPicks(classID, count int, filter func(key string) bool) ([]Pick, error) {
	lists, err := c.RoutePicks(classID, 1, func(key []byte, _ uint64) int {
		if filter != nil && !filter(bview(key)) {
			return -1
		}
		return 0
	})
	if err != nil {
		return nil, err
	}
	return lists[0][:min(max(count, 0), len(lists[0]))], nil
}

// TopMeta returns the metadata of the hottest count live items of the
// class whose keys pass filter (nil = all), hottest first, without
// materializing a single value: one scan of the class, then an ItemMeta
// for each item selected, so a rejected or unselected item costs no
// allocation. LastAccess is the stamp the scan read, so the result is
// non-increasing in it as the paper's single-list dump is; an item deleted
// between the scan and the read-back is left out. filter's contract is
// topPicks': it runs with every shard lock held on a view of the key
// bytes, and must neither retain the view nor call back into the cache.
func (c *Cache) TopMeta(classID, count int, filter func(key string) bool) ([]ItemMeta, error) {
	if err := c.checkClass(classID); err != nil {
		return nil, err
	}
	if count <= 0 {
		return nil, nil
	}
	picks, err := c.topPicks(classID, count, filter)
	if err != nil || len(picks) == 0 {
		return nil, err
	}
	metas := make([]ItemMeta, len(picks))
	c.readPicks(picks, func(i int, ch []byte) {
		metas[i] = metaOf(ch, classID)
		metas[i].LastAccess = fromNano(picks[i].Stamp)
	})
	// Keys are never empty: an empty one marks a pick gone since the scan.
	metas = slices.DeleteFunc(metas, func(m ItemMeta) bool { return m.Key == "" })
	if len(metas) == 0 {
		return nil, nil
	}
	return metas, nil
}

// CutBatches cuts selections — each hottest-first, as RoutePicks returns
// them — into batches and hands them to emit in order: selections in
// slice order, coldest-first within each, a batch closing once it holds
// maxPairs pairs or the next pair would push its payload (Pick.Size) past
// maxBytes. A bound <= 0 is off; a single oversized pair still forms its
// own batch; a batch may span selections. The batch slice is reused
// across calls to emit.
//
// Boundaries depend on the selections alone, so cutting the same
// selections again yields identical batches — the property a resumable
// sender relies on to skip already-acknowledged sequence numbers.
func CutBatches(sels [][]Pick, maxPairs, maxBytes int, emit func(batch []Pick, bytes int) error) error {
	var batch []Pick
	bytes := 0
	for _, sel := range sels {
		for i := len(sel) - 1; i >= 0; i-- {
			p := sel[i]
			sz := int(p.Size)
			if len(batch) > 0 &&
				((maxPairs > 0 && len(batch) >= maxPairs) ||
					(maxBytes > 0 && bytes+sz > maxBytes)) {
				if err := emit(batch, bytes); err != nil {
					return err
				}
				batch, bytes = batch[:0], 0
			}
			batch = append(batch, p)
			bytes += sz
		}
	}
	if len(batch) == 0 {
		return nil
	}
	return emit(batch, bytes)
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

// FetchTopStream picks the hottest count items of the class (topPicks,
// whose filter contract applies) and streams them to emit coldest-first
// in CutBatches batches, reading each batch's values with AppendPicks.
// Values are read per batch, so the caller's peak extra memory is the
// picks (32 bytes an item) plus one batch. It returns the total number of
// pairs emitted.
func (c *Cache) FetchTopStream(classID, count int, filter func(key string) bool, maxPairs, maxBytes int, emit func(StreamBatch) error) (int, error) {
	picks, err := c.topPicks(classID, count, filter)
	if err != nil {
		return 0, err
	}
	var (
		total int
		buf   []KV
		seq   uint64
	)
	err = CutBatches([][]Pick{picks}, maxPairs, maxBytes, func(batch []Pick, bytes int) error {
		seq++
		buf = c.AppendPicks(buf[:0], batch)
		total += len(buf)
		return emit(StreamBatch{Seq: seq, Pairs: buf, Bytes: bytes})
	})
	return total, err
}
