package cache

import (
	"errors"
	"fmt"
	"math"
	"time"
)

// This file implements the paper's two Memcached modifications
// (Section V-A1) and the metadata queries the ElMem control plane needs:
//
//   - the timestamp dump command (LRU-crawler style) that emits a slab's
//     (key, MRU timestamp) metadata in MRU order;
//   - the batch import that writes migrated KV pairs by prepending them to
//     the MRU list head, evicting colder tail items;
//   - the routed timestamp export and page weights the Master's node
//     scoring reads (Section III-C).
//
// On the sharded engine every query here aggregates across shards: dumps
// read the class through the page-order scanner (scan.go) and sort it by
// stamp, capacities gather-and-reduce, and the batch import fans its
// writes out per shard so each shard lock is taken once per batch.
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

// DumpClass returns the metadata of every live item in the slab class,
// hottest first, equal stamps by key hash — TopMeta without a limit, nil
// for an empty class. If filter is non-nil only items whose key passes are
// included. As with TopMeta, filter sees a view of the key bytes in cache
// memory and runs with every shard lock held: it must not retain the view
// or call back into the cache.
func (c *Cache) DumpClass(classID int, filter func(key string) bool) ([]ItemMeta, error) {
	return c.TopMeta(classID, math.MaxInt, filter)
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

// ClassOrderByShard returns the raw MRU lists of the class, one run per
// (shard, tenant) slab, shard by shard, head (hottest position) first,
// without the stamp sort the dumps apply. It is the one export that walks
// the lists rather than scanning pages, which also makes it the tests'
// independent check of the scanner. Position in a
// run is the item's true list position, which the migration invariant
// harness needs: a timestamp-sorted dump would mask MRU inversions (an
// item sitting ahead of a fresher one), the exact defect a replayed batch
// import used to introduce. Expired items are included — this is a
// structural probe, not a serving path.
func (c *Cache) ClassOrderByShard(classID int) ([][]ItemMeta, error) {
	if err := c.checkClass(classID); err != nil {
		return nil, err
	}
	var out [][]ItemMeta
	for _, sh := range c.shards {
		sh.mu.Lock()
		sh.eachClassSlab(classID, func(sl *slab) {
			run := make([]ItemMeta, 0, sl.list.size)
			sl.list.each(&c.pool, func(_ itemRef, ch []byte) bool {
				run = append(run, metaOf(ch, classID))
				return true
			})
			out = append(out, run)
		})
		sh.mu.Unlock()
	}
	return out, nil
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
// stalls behind the import. Grouping sorts pair indexes, not pairs, and
// each key is hashed once.
//
// It mirrors the paper's custom import: the normal set data checks are
// skipped because the pairs were just read from a live cache. An item
// whose slab class cannot obtain a chunk (page pool exhausted, nothing of
// that class to evict) is skipped, exactly as a real memcached set fails
// with SERVER_ERROR under slab exhaustion; the returned count reports how
// many pairs were actually imported.
func (c *Cache) BatchImport(pairs []KV, reverse bool) (int, error) {
	hashes := make([]uint64, len(pairs))
	for i := range pairs {
		_, hashes[i], _ = c.route(sbytes(pairs[i].Key))
	}
	order, end := c.groupByShard(len(pairs), func(i int) int { return int(hashes[i] & c.mask) })
	imported, lo := 0, 0
	for si, hi := range end {
		if lo == hi {
			continue
		}
		sh := c.shards[si]
		sh.mu.Lock()
		n, err := sh.importLocked(pairs, hashes, order[lo:hi], reverse)
		sh.mu.Unlock()
		imported += n
		if err != nil {
			return imported, err
		}
		lo = hi
	}
	return imported, nil
}

// groupByShard is a counting sort of n items by shard: shard s's items are
// order[end[s-1]:end[s]] (from 0 for shard 0), in item order.
func (c *Cache) groupByShard(n int, shardOf func(i int) int) (order []int32, end []int) {
	end = make([]int, len(c.shards))
	for i := 0; i < n; i++ {
		end[shardOf(i)]++
	}
	for s := 1; s < len(end); s++ {
		end[s] += end[s-1]
	}
	order = make([]int32, n)
	for i := n - 1; i >= 0; i-- {
		s := shardOf(i)
		end[s]--
		order[end[s]] = int32(i)
	}
	// end[s] is now shard s's first slot; shift it to its last.
	copy(end, end[1:])
	end[len(end)-1] = n
	return order, end
}

// importLocked imports one shard's pairs, pairs[idx[k]] with routing hash
// hashes[idx[k]], in the requested direction; callers hold sh.mu.
func (sh *shard) importLocked(pairs []KV, hashes []uint64, idx []int32, reverse bool) (int, error) {
	imported := 0
	for k := range idx {
		if reverse {
			k = len(idx) - 1 - k
		}
		i := idx[k]
		err := sh.importOneLocked(&pairs[i], hashes[i])
		switch {
		case err == nil:
			imported++
		case errors.Is(err, ErrOutOfMemory):
			// Slab exhaustion: drop the pair, count it, keep going.
			sh.importRefused++
		default:
			return imported, err
		}
	}
	return imported, nil
}

// importOneLocked inserts one migrated pair, whose routing hash is h, at
// its class's MRU head.
func (sh *shard) importOneLocked(p *KV, h uint64) error {
	if p.Key == "" {
		return ErrEmptyKey
	}
	c := sh.owner
	kb := sbytes(p.Key)
	expire := toNano(p.Expiry)
	classID, err := c.classFor(kb, len(p.Value), expire)
	if err != nil {
		return err
	}
	// The key's prefix names its tenant, so an import lands back in the
	// namespace it was dumped from.
	tid := c.resolveTenant(kb)
	pNano := toNano(p.LastAccess)
	if old, oldCh, found := sh.idx.lookup(h, tid, kb, &c.pool); found {
		// The receiver may already hold the key: set by a client while
		// metadata was in flight, or — after a lost reply — delivered again
		// by the sender's retry. Only a strictly fresher copy may update the
		// item or its MRU position; an equal-or-older incoming pair is a
		// replay (or stale race loser) and must be a no-op, otherwise each
		// retried batch re-hoists its items to the head, inflating their MRU
		// position past pairs that landed in between (see DESIGN.md, "Fault
		// injection & invariants").
		if pNano <= chAccess(oldCh) {
			return nil
		}
		if _, cur := c.pool.setOf(old); cur == classID {
			setChAccess(oldCh, pNano)
			setChValue(oldCh, p.Value, expire)
			setChFlags(oldCh, p.Flags)
			sh.slabAt(tid, classID).list.moveToFront(&c.pool, old)
			return nil
		}
		// As in storeLocked: the older copy goes before the allocation.
		sh.removeLocked(old, oldCh)
	}
	ref, err := sh.allocChunkLocked(tid, classID)
	if err != nil {
		return fmt.Errorf("import %q: %w", p.Key, err)
	}
	writeChunk(c.pool.chunkAt(ref), kb, p.Value, p.Flags, 0, pNano, expire)
	sh.linkNewLocked(h, tid, classID, ref)
	return nil
}
