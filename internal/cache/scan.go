package cache

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"time"

	"repro/internal/hashring"
)

// The page-order scanner: the one read of a class that every scaling-path
// export shares — the phase-1 routes (RouteStamps, RoutePicks), release
// (DropIf) and expiry (CrawlExpired). PAPER.md models the dump on
// memcached's LRU crawler, which advances a bounded number of items per
// lock hold; this scanner bounds the hold to one page instead of a list.
//
// A class's pages are shared by every shard, so a page is read with every
// shard lock held, taken in stripe order as FlushAll takes them. For each
// (tenant, class) page set the scanner snapshots the page list, and for
// each page:
//
//   - takes the shard locks, then, under the set's lock, finds the page in
//     the set again (a reclaim may have removed it, or a page before it)
//     and reads how many of its chunks the bump cursor has handed out;
//   - visits those chunks in address order, skipping every chunk whose
//     live tag is 0 — free, or unlinked — so rewound and never-used chunks
//     are never read;
//   - lets the locks go, and yields so that a reader queued on one of them
//     gets it before the next hold.
//
// A page of the smallest class holds 10 922 chunks; a hold that runs past
// scanHoldBudget lets the locks go mid-page and picks the page up again
// where it stopped. A list walk held a shard lock for a whole class. The
// scan reads chunks in page order, not list order: every consumer sorts by
// stamp anyway. An item set or promoted while the scan is between holds is
// read with its stamp at that moment; an item moved to another chunk
// mid-scan (a set that changes its class) may be read twice or not at all,
// as with any walk that lets the locks go.

// scanHoldBudget bounds one lock hold of the scanner. Reading a page of
// the smallest class takes 0.3–0.5 ms, so a hold covers about a page; one
// that also unlinks many items (a release dropping a large share) is cut
// short and the page finished in the next hold.
const scanHoldBudget = 500 * time.Microsecond

// scan visits every live chunk of the class's page sets — all classes
// when classID is negative — page by page, with every shard lock held.
// visit gets the shard the chunk's live tag names, the chunk's ref and
// its bytes; it may unlink the chunk it is given.
func (c *Cache) scan(classID int, visit func(sh *shard, ref itemRef, ch []byte)) {
	sets := *c.pageSets.Load()
	first, step := 0, 1
	if classID >= 0 {
		first, step = classID, len(c.classes)
	}
	var ids []uint32
	for slot := first; slot < len(sets); slot += step {
		cp := sets[slot]
		cp.mu.Lock()
		ids = append(ids[:0], cp.pageIDs...)
		cp.mu.Unlock()
		for i, pg := range ids {
			for from := 0; from >= 0; {
				from = c.scanHold(cp, i, pg, from, visit)
				// Let a reader that queued on a shard lock in: without the
				// yield the scanner would take the locks straight back.
				runtime.Gosched()
			}
		}
	}
}

// scanHold is one lock hold of the scan: page pg, the i-th page of the set
// when the scan snapshotted it, from chunk from on. It returns the chunk
// to resume at once the hold has used up scanHoldBudget, or -1 when the
// page is done.
func (c *Cache) scanHold(cp *classPages, i int, pg uint32, from int, visit func(sh *shard, ref itemRef, ch []byte)) int {
	c.shards[0].mu.Lock()
	start := time.Now()
	for _, sh := range c.shards[1:] {
		sh.mu.Lock()
	}
	n := cp.handedOut(i, pg)
	mem, cs := c.pool.mem, cp.chunkSize
	base := int(pg) * PageSize
	next := -1
	for j := from; j < n; j++ {
		if j&63 == 0 && j > from && time.Since(start) > scanHoldBudget {
			next = j
			break
		}
		off := base + j*cs
		ch := mem[off : off+cs : off+cs]
		if tag := chTag(ch); tag != 0 {
			visit(c.shards[tag-1], makeRef(pg, uint32(j)), ch)
		}
	}
	hold := int64(time.Since(start))
	for _, sh := range c.shards {
		sh.mu.Unlock()
	}
	for {
		prev := c.scanMaxHold.Load()
		if hold <= prev || c.scanMaxHold.CompareAndSwap(prev, hold) {
			return next
		}
	}
}

// handedOut finds page pg — the i-th page of an earlier snapshot of the
// set — in the set and returns how many of its chunks the bump cursor has
// handed out, or 0 if the page has left the set. Callers hold every shard
// lock, so the cursor cannot move, and a page a reclaim removes after this
// check is not drained until they let go.
func (cp *classPages) handedOut(i int, pg uint32) int {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	if i >= len(cp.pageIDs) || cp.pageIDs[i] != pg {
		if i = slices.Index(cp.pageIDs, pg); i < 0 {
			return 0
		}
	}
	return min(max(cp.next-i*cp.chunksPerPage, 0), cp.chunksPerPage)
}

// checkClass refuses a class ID outside the ladder.
func (c *Cache) checkClass(classID int) error {
	if classID < 0 || classID >= len(c.classes) {
		return fmt.Errorf("cache: slab class %d out of range", classID)
	}
	return nil
}

// RouteStamps is the timestamp export Score and phase 2 read: one scan
// over the class's live items that hands each item's key bytes to route
// and files the item's MRU timestamp under bucket route(key) of the result
// (a negative bucket drops the item). Each bucket comes back hottest first
// — the non-increasing hotness list FuseCache reads (Section IV-A). No key
// string is built per item: key aliases cache memory, is valid only during
// the call, and route runs with every shard lock held, so it must not call
// back into the cache. The buckets share one backing array, so a class
// costs a fixed handful of allocations however many items it holds.
// Expired items are skipped.
func (c *Cache) RouteStamps(classID, buckets int, route func(key []byte) int) ([][]int64, error) {
	if err := c.checkClass(classID); err != nil {
		return nil, err
	}
	nowNano := c.nowNano()
	n := c.ClassLen(classID)
	stamps := make([]int64, 0, n)
	dest := make([]int32, 0, n)
	counts := make([]int, buckets)
	c.scan(classID, func(_ *shard, _ itemRef, ch []byte) {
		if chExpired(ch, nowNano) {
			return
		}
		b := route(chKey(ch))
		if b < 0 {
			return
		}
		counts[b]++
		stamps = append(stamps, chAccess(ch))
		dest = append(dest, int32(b))
	})
	out := bucketize(stamps, dest, counts)
	for _, l := range out {
		// stamps is spent: bucketize copied it, so it is the scratch.
		sortHotFirst(l, stamps, func(ts *int64) int64 { return *ts })
	}
	return out, nil
}

// sortHotFirst sorts a by stamp, hottest (largest) first, stably: an LSD
// radix sort over the stamps' bytes that skips every byte on which all
// stamps agree, so stamps from one stretch of a nanosecond clock cost
// about five linear passes where a comparison sort costs log n. scratch
// must hold len(a) elements.
func sortHotFirst[T any](a, scratch []T, stamp func(*T) int64) {
	if len(a) < 2 {
		return
	}
	// Flipping every bit of the sign-adjusted stamp turns ascending digit
	// order into descending stamp order.
	key := func(x *T) uint64 { return ^(uint64(stamp(x)) ^ 1<<63) }
	first := key(&a[0])
	var differ uint64
	for i := range a {
		differ |= key(&a[i]) ^ first
	}
	src, dst := a, scratch[:len(a)]
	for shift := 0; shift < 64; shift += 8 {
		if byte(differ>>shift) == 0 {
			continue
		}
		var at [256]int
		for i := range src {
			at[byte(key(&src[i])>>shift)]++
		}
		sum := 0
		for d, n := range at {
			at[d] = sum
			sum += n
		}
		for i := range src {
			d := byte(key(&src[i]) >> shift)
			dst[at[d]] = src[i]
			at[d]++
		}
		src, dst = dst, src
	}
	if &src[0] != &a[0] {
		copy(a, src)
	}
}

// bucketize files items[i] under bucket dest[i], counts[b] of them per
// bucket, keeping scan order within a bucket. The buckets share one
// backing array.
func bucketize[T any](items []T, dest []int32, counts []int) [][]T {
	backing := make([]T, len(items))
	out := make([][]T, len(counts))
	off := 0
	for b, cnt := range counts {
		out[b] = backing[off : off : off+cnt]
		off += cnt
	}
	for i, it := range items {
		out[dest[i]] = append(out[dest[i]], it)
	}
	return out
}

// Pick is one item phase 1 routed to a target: enough to rank it, to cut
// it into a batch and to read it back in phase 3 (AppendPicks) without a
// list walk or a key lookup. A pick is 32 bytes and holds no key: what it
// addresses is a chunk, and AppendPicks checks that the chunk still holds
// the item before reading it.
type Pick struct {
	// Stamp is the item's MRU timestamp at the scan, unix nanos.
	Stamp int64
	// Hash is the key's ring position, hashring.KeyHashBytes(key): the
	// hash phase 1 routed by, and the check that the chunk still holds
	// the same key.
	Hash uint64
	ref  itemRef
	// Size is the item's payload at the scan: key + value bytes. Batches
	// are cut by it, so a retried push cuts the same batches.
	Size uint32
	// tag is the live tag the chunk carried: its shard + 1.
	tag uint16
	// epoch is the low 16 bits of the page's epoch at the scan: the page
	// would have to change hands 65 536 times between the phases for a
	// stale pick to pass as current.
	epoch uint16
}

func (p Pick) payloadBytes() int { return int(p.Size) }

// RoutePicks is the phase-1 export: one scan over the class's live items
// that hashes each key once (hashring.KeyHashBytes), hands route the key
// bytes and the hash, and files a Pick under bucket route(key, hash) of
// the result (a negative bucket drops the item). Each bucket comes back
// hottest first by Stamp, ties by chunk address. route's contract is
// RouteStamps'. Expired items are skipped.
func (c *Cache) RoutePicks(classID, buckets int, route func(key []byte, hash uint64) int) ([][]Pick, error) {
	if err := c.checkClass(classID); err != nil {
		return nil, err
	}
	nowNano := c.nowNano()
	n := c.ClassLen(classID)
	picks := make([]Pick, 0, n)
	dest := make([]int32, 0, n)
	counts := make([]int, buckets)
	epochs := c.pool.epochs
	c.scan(classID, func(sh *shard, ref itemRef, ch []byte) {
		if chExpired(ch, nowNano) {
			return
		}
		key := chKey(ch)
		h := hashring.KeyHashBytes(key)
		b := route(key, h)
		if b < 0 {
			return
		}
		counts[b]++
		picks = append(picks, Pick{
			Stamp: chAccess(ch),
			Hash:  h,
			ref:   ref,
			Size:  uint32(len(key) + chVLen(ch)),
			tag:   sh.tag,
			epoch: uint16(epochs[ref.page()].Load()),
		})
		dest = append(dest, int32(b))
	})
	out := bucketize(picks, dest, counts)
	for _, l := range out {
		// picks is spent: bucketize copied it, so it is the scratch.
		sortHotFirst(l, picks, func(p *Pick) int64 { return p.Stamp })
		// Equal stamps are rare; order each run of them by chunk address.
		for i := 0; i < len(l); {
			j := i + 1
			for j < len(l) && l[j].Stamp == l[i].Stamp {
				j++
			}
			if j-i > 1 {
				slices.SortFunc(l[i:j], func(a, b Pick) int { return cmp.Compare(a.ref, b.ref) })
			}
			i = j
		}
	}
	return out, nil
}

// AppendPicks reads picks back out of the cache — phase 3's read of what
// phase 1 picked — appending one KV per pick that still holds its item,
// in pick order, and returns the extended slice. A pick is skipped unless
// all of these hold:
//
//   - its page's epoch is the one it recorded: the page has neither left
//     its class (a tenant page steal) nor been flushed since, so the chunk
//     still has the class's size and belongs to the pick's shard;
//   - the chunk's live tag names the pick's shard: the item was not
//     deleted, evicted or expired away;
//   - the item has not expired;
//   - the key bytes in the chunk hash to the pick's Hash: the chunk was not
//     reused by another key.
//
// Picks are grouped by shard and each group is read under one hold of its
// shard lock. The call holds reclaimMu, so no page steal is half done
// while it reads: a pick whose epoch still holds addresses a chunk only
// its shard writes, and nothing is read before that check. Spare capacity
// in dst is reused with its value buffers, as in AppendPairs. The keys of
// one call share one fresh allocation, which nothing writes again.
func (c *Cache) AppendPicks(dst []KV, picks []Pick) []KV {
	if len(picks) == 0 {
		return dst
	}
	c.reclaimMu.Lock()
	defer c.reclaimMu.Unlock()
	start := len(dst)
	for range picks {
		if len(dst) < cap(dst) {
			dst = dst[:len(dst)+1]
		} else {
			dst = append(dst, KV{})
		}
	}
	out := dst[start:]
	order, end := c.groupByShard(len(picks), func(i int) int { return int(picks[i].tag) - 1 })
	keys := make([]byte, 0, 16*len(picks))
	nowNano := c.nowNano()
	lo := 0
	for s, hi := range end {
		if lo == hi {
			continue
		}
		sh := c.shards[s]
		sh.mu.Lock()
		for _, i := range order[lo:hi] {
			p, kv := &picks[i], &out[i]
			kv.Key = ""
			if uint16(c.pool.epochs[p.ref.page()].Load()) != p.epoch {
				continue
			}
			ch := c.pool.chunkAt(p.ref)
			if chTag(ch) != p.tag || chExpired(ch, nowNano) {
				continue
			}
			key := chKey(ch)
			if hashring.KeyHashBytes(key) != p.Hash {
				continue
			}
			keys = append(keys, key...)
			kv.Key = bview(keys[len(keys)-len(key):])
			kv.Value = append(kv.Value[:0], chValue(ch)...)
			kv.Flags = chFlags(ch)
			kv.LastAccess = fromNano(chAccess(ch))
			kv.Expiry = fromNano(chExpire(ch))
		}
		sh.mu.Unlock()
		lo = hi
	}
	return compactVanished(dst, start)
}

// compactVanished drops the entries from start on whose Key is empty, by
// swapping, so the dropped slots' value buffers stay parked in the spare
// capacity for reuse.
func compactVanished(dst []KV, start int) []KV {
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

// DropIf removes every resident item whose key drop reports true, in one
// scan, and returns how many it removed. drop sees the key bytes in cache
// memory, valid only for the call, and runs with every shard lock held. An
// agent releases the keys a settled table moved elsewhere through it.
func (c *Cache) DropIf(drop func(key []byte) bool) int {
	removed := 0
	c.scan(-1, func(sh *shard, ref itemRef, ch []byte) {
		if drop(chKey(ch)) {
			sh.removeLocked(ref, ch)
			removed++
		}
	})
	return removed
}

// CrawlExpired scans every class and removes expired items, like
// memcached's LRU crawler, one page per lock hold, so the crawl never
// stalls the store for longer than a page. Returns the number reclaimed.
func (c *Cache) CrawlExpired() int {
	reclaimed := 0
	nowNano := c.nowNano()
	c.scan(-1, func(sh *shard, ref itemRef, ch []byte) {
		if chExpired(ch, nowNano) {
			sh.expireLocked(ref, ch)
			reclaimed++
		}
	})
	return reclaimed
}
