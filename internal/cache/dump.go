package cache

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"time"
)

// This file implements the paper's two Memcached modifications
// (Section V-A1) and the metadata queries the ElMem control plane needs:
//
//   - the timestamp dump command (LRU-crawler style) that emits a slab's
//     (key, MRU timestamp) metadata in MRU order;
//   - the batch import that writes migrated KV pairs by prepending them to
//     the MRU list head, evicting colder tail items;
//   - median-timestamp queries per slab for the Master's node scoring
//     (Section III-C).
//
// On the sharded engine every query here aggregates across shards: dumps
// and selections k-way merge the per-shard MRU runs by timestamp, medians
// and capacities gather-and-reduce, and the batch import fans its writes
// out per shard so each shard lock is taken once per batch. The serving
// path on other shards keeps running while a dump snapshots one shard.
//
// Resident items are arena chunks; the Item/ItemMeta/KV values returned
// here are copies materialized at this boundary, so callers never alias
// live cache memory.

// ItemMeta is one entry of a timestamp dump: everything phase 1 of the
// migration ships over the network (keys are ~10s of bytes, timestamps 10
// bytes — values are deliberately not included; Section III-D1).
type ItemMeta struct {
	// Key is the item key.
	Key string `json:"key"`
	// LastAccess is the MRU timestamp.
	LastAccess time.Time `json:"lastAccess"`
	// ValueSize is the stored value length in bytes, needed by the receiver
	// to validate slab-class agreement.
	ValueSize int `json:"valueSize"`
	// ClassID is the slab class holding the item.
	ClassID int `json:"classId"`
}

// metaOf materializes a chunk's metadata copy.
func metaOf(ch []byte, classID int) ItemMeta {
	return ItemMeta{
		Key:        string(chKey(ch)),
		LastAccess: fromNano(chAccess(ch)),
		ValueSize:  chVLen(ch),
		ClassID:    classID,
	}
}

// eachClassSlab visits every slab of the class, one per tenant. Tenants are
// named by key prefix, so a dumped key re-resolves to the same tenant on the
// importing node. Callers hold sh.mu.
func (sh *shard) eachClassSlab(classID int, fn func(sl *slab)) {
	nc := len(sh.owner.classes)
	for slot := classID; slot < len(sh.slabs); slot += nc {
		if sl := sh.slabs[slot]; sl != nil {
			fn(sl)
		}
	}
}

// walkClass visits one shard's live chunks of the class in MRU order, slab
// by slab, under the shard lock. take reports whether it selected the
// chunk; each slab contributes at most limit selections. Expired chunks are
// never offered: dead items are neither migration candidates nor scoring
// inputs. This is the only export-side list walk — dumps, selections,
// timestamp routes, snapshots and medians all read through it.
func (sh *shard) walkClass(classID, limit int, nowNano int64, take func(ch []byte) bool) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.eachClassSlab(classID, func(sl *slab) {
		taken := 0
		sl.list.each(&sh.owner.pool, func(_ itemRef, ch []byte) bool {
			if chExpired(ch, nowNano) || !take(ch) {
				return true
			}
			taken++
			return taken < limit
		})
	})
}

// DumpClass returns the metadata of every item in the slab class, globally
// in MRU order (hottest first) — TopMeta without a limit. If filter is
// non-nil only items whose key passes are included — retiring Agents filter
// by consistent-hash target. As with TopMeta, filter sees a view of the key
// bytes in cache memory and must not retain it.
func (c *Cache) DumpClass(classID int, filter func(key string) bool) ([]ItemMeta, error) {
	return c.TopMeta(classID, math.MaxInt, filter)
}

// RouteStamps is the phase-1 timestamp export: one walk over the class's
// live items, shard by shard, that hands each item's key bytes to route and
// files the item's MRU timestamp under bucket route(key) of the result (a
// negative bucket drops the item). Each bucket comes back hottest first —
// the non-increasing hotness list FuseCache reads (Section IV-A). No key
// string or ItemMeta is built per item: key aliases cache memory, is valid
// only during the call, and route runs under the shard lock. The buckets
// share one backing array, so a class costs a fixed handful of allocations
// however many items it holds.
func (c *Cache) RouteStamps(classID, buckets int, route func(key []byte) int) ([][]int64, error) {
	if classID < 0 || classID >= len(c.classes) {
		return nil, fmt.Errorf("cache: slab class %d out of range", classID)
	}
	nowNano := c.nowNano()
	n := c.ClassLen(classID)
	stamps := make([]int64, 0, n)
	dest := make([]int32, 0, n)
	counts := make([]int, buckets)
	for _, sh := range c.shards {
		sh.walkClass(classID, math.MaxInt, nowNano, func(ch []byte) bool {
			b := route(chKey(ch))
			if b < 0 {
				return false
			}
			counts[b]++
			stamps = append(stamps, chAccess(ch))
			dest = append(dest, int32(b))
			return true
		})
	}
	backing := make([]int64, len(stamps))
	out := make([][]int64, buckets)
	off := 0
	for b, cnt := range counts {
		out[b] = backing[off : off : off+cnt]
		off += cnt
	}
	for i, ts := range stamps {
		out[dest[i]] = append(out[dest[i]], ts)
	}
	for _, l := range out {
		slices.Sort(l)
		slices.Reverse(l)
	}
	return out, nil
}

// DumpAll returns the timestamp dump of every populated slab class, keyed
// by class ID, each globally in MRU order, under DumpClass's filter
// contract.
func (c *Cache) DumpAll(filter func(key string) bool) map[int][]ItemMeta {
	populated := c.PopulatedClasses()
	out := make(map[int][]ItemMeta, len(populated))
	for _, id := range populated {
		metas, err := c.DumpClass(id, filter)
		if err != nil || len(metas) == 0 {
			continue
		}
		out[id] = metas
	}
	return out
}

// ClassOrderByShard returns each shard's raw MRU list for the class, head
// (hottest position) first, without the cross-shard timestamp merge the
// dumps apply. Position in a run is the item's true list position, which
// the migration invariant harness needs: a timestamp-sorted dump would
// mask MRU inversions (an item sitting ahead of a fresher one), the exact
// defect a replayed batch import used to introduce. Expired items are
// included — this is a structural probe, not a serving path.
func (c *Cache) ClassOrderByShard(classID int) ([][]ItemMeta, error) {
	if classID < 0 || classID >= len(c.classes) {
		return nil, fmt.Errorf("cache: slab class %d out of range", classID)
	}
	out := make([][]ItemMeta, 0, len(c.shards))
	for _, sh := range c.shards {
		sh.mu.Lock()
		var run []ItemMeta
		if sl := sh.slabs[classID]; sl != nil && sl.list.size > 0 {
			run = make([]ItemMeta, 0, sl.list.size)
			sl.list.each(&c.pool, func(ref itemRef, ch []byte) bool {
				run = append(run, metaOf(ch, classID))
				return true
			})
		}
		sh.mu.Unlock()
		out = append(out, run)
	}
	return out, nil
}

// MedianTimestamp returns the MRU timestamp of the median live item (by
// global MRU position across shards) of the slab class. The boolean is
// false when the class holds no live item. The Master compares these
// medians across nodes to score retiring candidates (Section III-C).
func (c *Cache) MedianTimestamp(classID int) (time.Time, bool) {
	lists, err := c.RouteStamps(classID, 1, func([]byte) int { return 0 })
	if err != nil || len(lists[0]) == 0 {
		return time.Time{}, false
	}
	return fromNano(lists[0][len(lists[0])/2]), true
}

// SlabPageWeights returns w_b for every class holding pages: the fraction
// of this node's assigned pages the class holds, across tenants
// (Section III-C).
func (c *Cache) SlabPageWeights() map[int]float64 {
	assigned := c.pool.assignedCount()
	out := make(map[int]float64)
	if assigned == 0 {
		return out
	}
	nc := len(c.classes)
	for slot, cp := range *c.pageSets.Load() {
		if pages, _ := cp.snapshot(); pages > 0 {
			out[slot%nc] += float64(pages) / float64(assigned)
		}
	}
	return out
}

// PopulatedClasses returns the IDs of classes holding at least one item in
// any shard, in ascending order.
func (c *Cache) PopulatedClasses() []int {
	seen := make([]bool, len(c.classes))
	for _, sh := range c.shards {
		sh.mu.Lock()
		for slot, sl := range sh.slabs {
			if sl != nil && sl.list.size > 0 {
				seen[slot%len(c.classes)] = true
			}
		}
		sh.mu.Unlock()
	}
	var out []int
	for classID, ok := range seen {
		if ok {
			out = append(out, classID)
		}
	}
	return out
}

// ClassLen returns the number of items resident in the class across shards.
func (c *Cache) ClassLen(classID int) int {
	if classID < 0 || classID >= len(c.classes) {
		return 0
	}
	n := 0
	for _, sh := range c.shards {
		sh.mu.Lock()
		sh.eachClassSlab(classID, func(sl *slab) { n += sl.list.size })
		sh.mu.Unlock()
	}
	return n
}

// ClassCapacity returns the chunk capacity of the class's assigned pages,
// across tenants.
func (c *Cache) ClassCapacity(classID int) int {
	if classID < 0 || classID >= len(c.classes) {
		return 0
	}
	sets := *c.pageSets.Load()
	n := 0
	for slot := classID; slot < len(sets); slot += len(c.classes) {
		pages, _ := sets[slot].snapshot()
		n += pages * sets[slot].chunksPerPage
	}
	return n
}

// ClassAbsorbCapacity returns how many items of the class this cache can
// hold in the best case: chunks in pages already assigned to the class
// plus every still-unassigned pool page converted to this class.
// FuseCache sizes its selection target n from this (Section IV-A) — it is
// exactly the space the migration's batch import can fill without dropping
// pairs.
func (c *Cache) ClassAbsorbCapacity(classID int) int {
	if classID < 0 || classID >= len(c.classes) {
		return 0
	}
	chunksPerPage := PageSize / c.classes[classID]
	return c.pool.free()*chunksPerPage + c.ClassCapacity(classID)
}

// BatchImport writes migrated KV pairs into the cache by prepending them at
// the head of their slab class's MRU list in the given order (so
// pairs[len-1] ends up hottest if the slice is coldest-first, and
// pairs[0] ends up hottest when reverse is true and the slice is
// hottest-first). Colder items at the tail are evicted to make room, which
// by FuseCache's construction are strictly colder than the imports
// (Section III-D3). Timestamps of the imported items are preserved.
//
// The write fan-out is per shard: pairs are grouped by their key's shard,
// preserving slice order, and each shard's group is imported under one
// lock acquisition, so a migration-sized batch costs at most one lock per
// shard instead of one per pair — the serving path on other shards never
// stalls behind the import.
//
// It mirrors the paper's custom import: the normal set data checks are
// skipped because the pairs were just read from a live cache. An item
// whose slab class cannot obtain a chunk (page pool exhausted, nothing of
// that class to evict) is skipped, exactly as a real memcached set fails
// with SERVER_ERROR under slab exhaustion; the returned count reports how
// many pairs were actually imported.
func (c *Cache) BatchImport(pairs []KV, reverse bool) (int, error) {
	groups := make([][]KV, len(c.shards))
	for _, p := range pairs {
		i := c.shardIndexFor(p.Key)
		groups[i] = append(groups[i], p)
	}
	imported := 0
	for si, group := range groups {
		if len(group) == 0 {
			continue
		}
		sh := c.shards[si]
		sh.mu.Lock()
		n, err := sh.importLocked(group, reverse)
		sh.mu.Unlock()
		imported += n
		if err != nil {
			return imported, err
		}
	}
	return imported, nil
}

// importLocked walks one shard's group in the requested direction; callers
// hold sh.mu.
func (sh *shard) importLocked(pairs []KV, reverse bool) (int, error) {
	imported := 0
	importOne := func(p KV) error {
		err := sh.importOneLocked(p)
		switch {
		case err == nil:
			imported++
			return nil
		case errors.Is(err, ErrOutOfMemory):
			// Slab exhaustion: drop the pair, count it, keep going.
			sh.importRefused++
			return nil
		default:
			return err
		}
	}
	if reverse {
		for i := len(pairs) - 1; i >= 0; i-- {
			if err := importOne(pairs[i]); err != nil {
				return imported, err
			}
		}
		return imported, nil
	}
	for _, p := range pairs {
		if err := importOne(p); err != nil {
			return imported, err
		}
	}
	return imported, nil
}

// importOneLocked inserts one migrated pair at its class's MRU head.
func (sh *shard) importOneLocked(p KV) error {
	if p.Key == "" {
		return ErrEmptyKey
	}
	c := sh.owner
	kb := sbytes(p.Key)
	classID, err := c.classFor(kb, len(p.Value))
	if err != nil {
		return err
	}
	// The key's prefix names its tenant, so an import lands back in the
	// namespace it was dumped from.
	tid := c.resolveTenant(kb)
	h := shardHashT(tid, kb)
	pNano := toNano(p.LastAccess)
	if ref, ch, ok := sh.idx.lookup(h, tid, kb, &c.pool); ok {
		// The receiver may already hold the key: set by a client while
		// metadata was in flight, or — after a lost reply — delivered again
		// by the sender's retry. Only a strictly fresher copy may update the
		// item or its MRU position; an equal-or-older incoming pair is a
		// replay (or stale race loser) and must be a no-op, otherwise each
		// retried batch re-hoists its items to the head, inflating their MRU
		// position past pairs that landed in between (see DESIGN.md, "Fault
		// injection & invariants").
		if pNano <= chAccess(ch) {
			return nil
		}
		setChAccess(ch, pNano)
		if chClass(ch) == classID {
			setChValue(ch, p.Value)
			setChFlags(ch, p.Flags)
			setChExpire(ch, toNano(p.Expiry))
			sh.slabAt(tid, classID).list.moveToFront(&c.pool, ref)
			return nil
		}
		sh.removeLocked(ref, ch)
	}
	ref, err := sh.allocChunkLocked(tid, classID)
	if err != nil {
		return fmt.Errorf("import %q: %w", p.Key, err)
	}
	ch := c.pool.chunkAt(ref)
	writeChunk(ch, kb, p.Value, p.Flags, 0, pNano, toNano(p.Expiry), classID, tid)
	sl := sh.slabAt(tid, classID)
	sl.list.pushFront(&c.pool, ref)
	sl.used++
	sh.idx.insert(h, ref)
	ts := sh.tstat(tid)
	ts.items++
	ts.bytes += int64(sl.chunkSize)
	return nil
}
