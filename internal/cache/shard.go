package cache

import (
	"fmt"
	"math/bits"
	"runtime"
	"sync"
	"unsafe"
)

// The lock-striped engine: keys are routed by FNV-1a hash onto a power-of-
// two number of shards, each owning its slice of the key index and its own
// per-class MRU lists and free lists. Pages are not striped: each (tenant,
// class) has one page set (classPages, see slab.go) shared by every shard,
// behind its own lock, drawing pages from the global budget (pagePool, see
// arena.go). Gets never touch either lock; a set takes the class lock only
// for a never-used chunk, and the pool lock only to add a page.
//
// Items live entirely inside arena chunks (see arena.go): the shard holds
// no per-item Go objects, only the pointer-free keyIndex and the per-class
// slabs whose MRU lists are ref-linked through the chunk headers.

// minPagesPerShard bounds striping from below. Pages belong to classes,
// not shards, so a shard count no longer costs pages; what remains is the
// eviction granularity: each shard evicts only its own LRU tail, and a
// shard that holds no item of a class cannot evict for it once the pool
// is exhausted. Small budgets therefore get proportionally fewer shards,
// and a one-page test cache degenerates to a single shard, which
// reproduces the seed engine's single-lock semantics exactly.
const minPagesPerShard = 8

// maxShards caps the stripe count so a shard index + 1 fits the chunk
// header's 16-bit live tag.
const maxShards = 1 << 15

// defaultShardCount picks max(16, GOMAXPROCS) shards, rounded to a power
// of two and capped at one shard per minPagesPerShard pages.
func defaultShardCount(maxPages int) int {
	limit := 16
	if p := runtime.GOMAXPROCS(0); p > limit {
		limit = p
	}
	limit = ceilPow2(limit)
	n := floorPow2(maxPages / minPagesPerShard)
	if n < 1 {
		n = 1
	}
	if n > limit {
		n = limit
	}
	return n
}

func ceilPow2(n int) int {
	if n <= 1 {
		return 1
	}
	return 1 << bits.Len(uint(n-1))
}

func floorPow2(n int) int {
	if n < 1 {
		return 0
	}
	return 1 << (bits.Len(uint(n)) - 1)
}

// FNV-1a, the paper-era memcached default for hash-table bucketing; the
// upper half is folded in because the shard mask keeps only low bits (the
// in-shard keyIndex re-mixes the full hash, see index.go).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func shardHash(key string) uint64 {
	h := uint64(fnvOffset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= fnvPrime64
	}
	return h ^ h>>32
}

// shardHashBytes is shardHash over a byte-slice key, for wire-path callers
// that keep keys as parser-owned slices.
func shardHashBytes(key []byte) uint64 {
	h := uint64(fnvOffset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= fnvPrime64
	}
	return h ^ h>>32
}

// shardHashT is the tenant-aware routing hash: the two tenant-ID bytes are
// folded into the FNV-1a stream ahead of the key, so the same key lands on
// (usually) different shards and always different index hashes per tenant.
// Tenant 0 — the default namespace — skips the fold entirely and produces
// bit-identical hashes to shardHashBytes, so single-tenant deployments keep
// the exact pre-tenancy placement (and the chaos/differential suites their
// determinism).
func shardHashT(tid uint16, key []byte) uint64 {
	h := uint64(fnvOffset64)
	if tid != 0 {
		h = (h ^ uint64(tid&0xff)) * fnvPrime64
		h = (h ^ uint64(tid>>8)) * fnvPrime64
	}
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= fnvPrime64
	}
	return h ^ h>>32
}

// sbytes views a string's bytes without copying. The slice is read-only by
// contract: it is only ever hashed, compared, or copied from. It lets the
// string-keyed convenience API share the byte-keyed core paths.
func sbytes(s string) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice(unsafe.StringData(s), len(s))
}

// bview views bytes as a string without copying, for handing arena key
// bytes to a caller's filter: the string aliases cache memory, is valid
// only for the call, and must not be retained.
func bview(b []byte) string { return unsafe.String(unsafe.SliceData(b), len(b)) }

// tenantStat is one shard's slice of a tenant's counters and residency.
// Bytes are chunk-size accounted (what the tenant physically occupies, not
// payload bytes), so residency sums exactly to assigned pages minus free
// chunks. Guarded by the shard mutex.
type tenantStat struct {
	hits, misses, sets, evictions, expirations uint64
	items                                      int
	bytes                                      int64
}

// sampleHashMask keeps the low 48 bits of the routing hash in a packed
// access sample; the high 16 carry the tenant ID.
const sampleHashMask = 1<<48 - 1

// shard is one lock stripe: a pointer-free key index plus per-tenant,
// per-class slabs (MRU and free lists) and counters. Everything below the
// mutex is guarded by it.
type shard struct {
	owner *Cache
	// tag is the live tag this shard writes into the chunks it links:
	// its stripe index + 1 (see arena.go).
	tag uint16

	mu  sync.Mutex
	idx keyIndex
	// slabs is slot-indexed: slot = tenantID*len(classes) + classID. The
	// slice starts at one tenant's worth (the default namespace) and grows
	// lazily as tenants touch the shard.
	slabs []*slab

	// tstats is the per-tenant counter table, indexed by tenant ID.
	// RegisterTenant pre-grows it so steady-state ops never append.
	tstats []tenantStat

	// samples is the preallocated access-sample buffer the arbiter drains:
	// packed (tenantID << 48 | hash&sampleHashMask) words, appended only
	// while len < cap so the hot path never reallocates. sampleOn gates the
	// append and is flipped under the shard lock.
	samples  []uint64
	sampleOn bool

	hits, misses, sets, evictions uint64
	expirations                   uint64
	importRefused                 uint64
}

func newShard(c *Cache, i int) *shard {
	return &shard{
		owner:  c,
		tag:    uint16(i + 1),
		slabs:  make([]*slab, len(c.classes)),
		tstats: make([]tenantStat, 1),
	}
}

// slabAt returns the (tenant, class) slab, growing the slot table and
// creating the slab over the class's shared page set on first use.
func (sh *shard) slabAt(tid uint16, classID int) *slab {
	nc := len(sh.owner.classes)
	slot := int(tid)*nc + classID
	for slot >= len(sh.slabs) {
		sh.slabs = append(sh.slabs, nil)
	}
	if sh.slabs[slot] == nil {
		sh.slabs[slot] = newSlab(sh.owner.classPagesAt(slot))
	}
	return sh.slabs[slot]
}

// slabFor resolves the slab owning an existing chunk.
func (sh *shard) slabFor(ch []byte) *slab {
	return sh.slabAt(chTenant(ch), chClass(ch))
}

// tstat returns the tenant's counter slot, growing the table on first use.
func (sh *shard) tstat(tid uint16) *tenantStat {
	for int(tid) >= len(sh.tstats) {
		sh.tstats = append(sh.tstats, tenantStat{})
	}
	return &sh.tstats[tid]
}

// sampleAccess records one access for the MRC estimator. The buffer is
// fixed-capacity: when the arbiter falls behind, samples are dropped rather
// than the hot path allocating or blocking.
func (sh *shard) sampleAccess(tid uint16, h uint64) {
	if sh.sampleOn && len(sh.samples) < cap(sh.samples) {
		sh.samples = append(sh.samples, uint64(tid)<<48|h&sampleHashMask)
	}
}

// items reports the number of resident keys (live index entries), the
// arena engine's equivalent of len(table).
func (sh *shard) items() int { return sh.idx.count }

// lookupLocked finds a live item by its routing hash, tenant, and key
// bytes, lazily expiring a dead one. It returns the item's ref and chunk.
func (sh *shard) lookupLocked(h uint64, tid uint16, key []byte, nowNano int64) (itemRef, []byte, bool) {
	ref, ch, ok := sh.idx.lookup(h, tid, key, &sh.owner.pool)
	if !ok {
		return nilRef, nil, false
	}
	if chExpired(ch, nowNano) {
		sh.expireLocked(ref, ch)
		return nilRef, nil, false
	}
	return ref, ch, true
}

// peekLocked is lookupLocked without the lazy expiry (expired items are
// skipped, not reclaimed) — for read-only probes like Peek/Contains.
func (sh *shard) peekLocked(h uint64, tid uint16, key []byte, nowNano int64) ([]byte, bool) {
	_, ch, ok := sh.idx.lookup(h, tid, key, &sh.owner.pool)
	if !ok {
		return nil, false
	}
	if chExpired(ch, nowNano) {
		return nil, false
	}
	return ch, true
}

// setLocked is the core insert path; callers hold sh.mu. The key and value
// bytes are copied into the item's chunk (overwritten in place when the
// slab class is unchanged, so a steady-state set allocates nothing) and
// the expiry is cleared; callers needing a TTL stamp it on the returned
// chunk. Returns the stored chunk so callers can adjust fields without a
// second lookup.
func (sh *shard) setLocked(h uint64, tid uint16, key, value []byte, flags uint32, tsNano int64) ([]byte, error) {
	c := sh.owner
	classID, err := c.classFor(key, len(value))
	if err != nil {
		return nil, err
	}

	cas := c.casSeq.Add(1)
	if ref, ch, ok := sh.idx.lookup(h, tid, key, &c.pool); ok {
		if chClass(ch) == classID {
			// In-place update within the same chunk: steady-state
			// overwrites touch only arena bytes.
			setChValue(ch, value)
			setChFlags(ch, flags)
			setChAccess(ch, tsNano)
			setChExpire(ch, nanoNone)
			setChCAS(ch, cas)
			sh.slabAt(tid, classID).list.moveToFront(&c.pool, ref)
			sh.sets++
			sh.tstat(tid).sets++
			return ch, nil
		}
		// Size class changed: drop and reinsert.
		sh.removeLocked(ref, ch)
	}

	ref, err := sh.allocChunkLocked(tid, classID)
	if err != nil {
		return nil, fmt.Errorf("set %q: %w", key, err)
	}
	ch := c.pool.chunkAt(ref)
	writeChunk(ch, key, value, flags, cas, tsNano, nanoNone, classID, tid)
	setChTag(ch, sh.tag)
	sl := sh.slabAt(tid, classID)
	sl.list.pushFront(&c.pool, ref)
	sl.used++
	sh.idx.insert(h, ref)
	sh.sets++
	ts := sh.tstat(tid)
	ts.sets++
	ts.items++
	ts.bytes += int64(sl.chunkSize)
	return ch, nil
}

// allocChunkLocked guarantees a free chunk for the tenant's class: from
// the shard's free list, then a never-used chunk of the class's shared
// pages (adding a page from the pool, subject to the tenant's quota), then
// by evicting the shard's LRU tail of the tenant's class and reusing its
// chunk. A tenant at quota can only evict itself — its pressure never
// touches another tenant's residents.
func (sh *shard) allocChunkLocked(tid uint16, classID int) (itemRef, error) {
	sl := sh.slabAt(tid, classID)
	pool := &sh.owner.pool
	for {
		if ref, ok := sl.popFree(pool); ok {
			return ref, nil
		}
		if ref, ok := sl.pages.take(pool); ok {
			return ref, nil
		}
		if sl.list.tail == nilRef {
			return nilRef, ErrOutOfMemory
		}
		// A victim on a page being reclaimed is evicted but its chunk is
		// not reused (popFree), so this may take another round.
		sh.evictLocked(sl, sl.list.tail)
	}
}

// evictLocked drops an item of sl to make room, or to empty a reclaimed
// page, counting an eviction.
func (sh *shard) evictLocked(sl *slab, victim itemRef) {
	sh.unlinkLocked(sl, victim, sh.owner.pool.chunkAt(victim))
	sl.evictions++
	sh.evictions++
	sh.tstat(sl.tenant).evictions++
}

// removeLocked unlinks an item and recycles its chunk, debiting the owning
// tenant's residency. The routing hash is recomputed from the key bytes in
// the chunk — removal is never on the zero-alloc fast path.
func (sh *shard) removeLocked(ref itemRef, ch []byte) {
	sh.unlinkLocked(sh.slabFor(ch), ref, ch)
}

// unlinkLocked takes an item of sl out of the index and the MRU list and
// pushes its chunk on the free list.
func (sh *shard) unlinkLocked(sl *slab, ref itemRef, ch []byte) {
	pool := &sh.owner.pool
	h := shardHashT(sl.tenant, chKey(ch))
	sl.list.remove(pool, ref)
	setChTag(ch, 0)
	sl.used--
	sh.idx.delete(h, ref)
	sl.pushFree(pool, ref)
	ts := sh.tstat(sl.tenant)
	ts.items--
	ts.bytes -= int64(sl.chunkSize)
}

// expireLocked lazily removes an expired item, counting like memcached: a
// get on an expired item is a miss. removeLocked debits the tenant's
// resident bytes, so an item that dies in place is charged back to its
// namespace immediately rather than leaking until a page steal.
func (sh *shard) expireLocked(ref itemRef, ch []byte) {
	tid := chTenant(ch)
	sh.removeLocked(ref, ch)
	sh.expirations++
	sh.tstat(tid).expirations++
}

// ShardStat is one shard's slice of the counters, exposed through Stats so
// shard imbalance is observable (metrics.AnalyzeShards consumes the item
// distribution).
type ShardStat struct {
	// Shard is the stripe index.
	Shard int `json:"shard"`
	// Items is the number of items resident in the shard.
	Items int `json:"items"`
	// Hits, Misses, Sets, and Evictions are the shard's counters.
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Sets      uint64 `json:"sets"`
	Evictions uint64 `json:"evictions"`
}
