package cache

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
)

// Memcached slab constants (Section II-A): memory is divided into 1 MiB
// pages; pages are grouped into slab classes, each storing items of a given
// size range in fixed-size chunks to minimize fragmentation.
const (
	// PageSize is the memcached page size.
	PageSize = 1 << 20
	// MinChunkSize is the smallest chunk (memcached default is 80–96 bytes
	// depending on build; we use 96).
	MinChunkSize = 96
	// DefaultGrowthFactor is memcached's default chunk growth factor.
	DefaultGrowthFactor = 1.25
	// ItemOverhead is the per-item storage overhead of an item that never
	// expires: exactly the in-chunk header (list links, CAS, MRU stamp,
	// flags, lengths, live tag — see arena.go). An item of keyLen+valueLen
	// payload occupies the smallest chunk ≥ keyLen+valueLen+ItemOverhead,
	// plus 8 bytes of expiry tail when it expires; every class fit goes
	// through itemNeed, so class selection always matches the physical
	// layout (pinned by TestChunkHeaderLayout).
	ItemOverhead = chunkHeaderSize
)

// sizeClasses computes the chunk sizes for every slab class: a geometric
// ladder from MinChunkSize up to PageSize with the given growth factor,
// always ending with one PageSize class so any item up to a page fits.
func sizeClasses(factor float64) []int {
	if factor <= 1.01 {
		factor = DefaultGrowthFactor
	}
	var classes []int
	size := MinChunkSize
	for size < PageSize {
		classes = append(classes, size)
		next := int(float64(size) * factor)
		if next <= size {
			next = size + 8
		}
		// Memcached aligns chunk sizes to 8 bytes.
		next = (next + 7) &^ 7
		size = next
	}
	classes = append(classes, PageSize)
	return classes
}

// classPages is one (tenant, class) page set, shared by every shard: the
// 1 MiB pages memcached assigns to a slab class (Section II-A), in
// acquisition order, and the bump cursor through them that supplies
// never-used chunks. Lock striping splits the class's items, MRU lists and
// free lists by shard, but not its pages, so a class holds only the pages
// its items fill — at most one part-filled page per class, however many
// shards there are.
//
// mu is taken only when a set or import needs a never-used chunk and when
// a page leaves the class; a steady-state evicting set reuses its victim's
// chunk under the shard lock alone, because full lets it skip this lock
// while nothing has changed in the pool. Lock order: shard → mu → pool.
type classPages struct {
	tenant        uint16
	classID       int
	chunkSize     int
	chunksPerPage int

	// full is the pool generation (pagePool.gen) at which take last found
	// neither a never-used chunk nor a page to add. While the generation
	// is unchanged no page or quota has come free, so take fails without
	// locking. Zero never matches: generations start at one.
	full atomic.Uint64

	mu      sync.Mutex
	pageIDs []uint32
	// next is the bump cursor: chunks handed out since the last rewind,
	// counted through pageIDs in order. FlushAll rewinds it to zero.
	next int
	// touched is next's high-water mark: the chunks ever handed out, which
	// the kernel has had to back with memory.
	touched int
}

func newClassPages(tenant uint16, classID, chunkSize int) *classPages {
	return &classPages{tenant: tenant, classID: classID, chunkSize: chunkSize, chunksPerPage: PageSize / chunkSize}
}

// take hands out the class's next never-used chunk, adding a page from
// the pool (subject to the tenant's quota) when the cursor has run off the
// last one. Callers hold the shard lock of the chunk's future owner.
func (cp *classPages) take(p *pagePool) (itemRef, bool) {
	gen := p.gen.Load()
	if cp.full.Load() == gen {
		return nilRef, false
	}
	cp.mu.Lock()
	defer cp.mu.Unlock()
	if cp.next == len(cp.pageIDs)*cp.chunksPerPage {
		id, ok := p.tryAcquire(cp.tenant, cp.classID)
		if !ok {
			cp.full.Store(gen)
			return nilRef, false
		}
		cp.pageIDs = append(cp.pageIDs, id)
	}
	ref := makeRef(cp.pageIDs[cp.next/cp.chunksPerPage], uint32(cp.next%cp.chunksPerPage))
	cp.next++
	cp.touched = max(cp.touched, cp.next)
	return ref, true
}

// rewindLocked makes every chunk never-used again, keeping the pages
// (FlushAll). Callers hold cp.mu and every shard lock.
func (cp *classPages) rewindLocked() {
	cp.next = 0
	cp.full.Store(0)
}

// removeLocked takes page id out of the set, the first step of a page
// reclaim: the cursor and the high-water mark lose the page's chunks, so no
// never-used chunk of it is handed out again. Callers hold cp.mu.
func (cp *classPages) removeLocked(id uint32) {
	i := slices.Index(cp.pageIDs, id)
	lo := i * cp.chunksPerPage
	cp.next -= min(max(cp.next-lo, 0), cp.chunksPerPage)
	cp.touched -= min(max(cp.touched-lo, 0), cp.chunksPerPage)
	cp.pageIDs = slices.Delete(cp.pageIDs, i, i+1)
}

// snapshot reads the page count and the touched chunks under the lock.
func (cp *classPages) snapshot() (pages, touched int) {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	return len(cp.pageIDs), cp.touched
}

// slab is one shard's share of a (tenant, class): the MRU-ordered ref list
// of the shard's resident items of the class and its free list, chained
// through the chunks' next fields. The chunks themselves come from the
// class's shared page set.
type slab struct {
	pages     *classPages
	chunkSize int
	tenant    uint16

	// freeHead chains recycled chunks (delete, expiry, eviction,
	// class-change reinsert) through their next fields.
	freeHead itemRef

	// used is the number of occupied chunks.
	used int

	// list holds the shard's items of the class in MRU order.
	list refList

	// evictions counts LRU tail drops from this slab.
	evictions uint64
}

func newSlab(pages *classPages) *slab {
	return &slab{pages: pages, chunkSize: pages.chunkSize, tenant: pages.tenant}
}

// pushFree recycles a chunk onto the free list.
func (s *slab) pushFree(p *pagePool, ref itemRef) {
	setChNext(p.chunkAt(ref), s.freeHead)
	s.freeHead = ref
}

// popFree takes a recycled chunk off the free list. A chunk on a page
// being reclaimed is dropped instead: it leaves with its page.
func (s *slab) popFree(p *pagePool) (itemRef, bool) {
	for s.freeHead != nilRef {
		ref := s.freeHead
		s.freeHead = chNext(p.chunkAt(ref))
		if !p.draining[ref.page()].Load() {
			return ref, true
		}
	}
	return nilRef, false
}

// reset drops every resident item (FlushAll).
func (s *slab) reset() {
	s.freeHead = nilRef
	s.used = 0
	s.list = refList{}
}

// SlabStats is a point-in-time snapshot of one slab class, exposed through
// Cache.Stats and used by the Master's node-scoring (III-C) for the page
// weight w_b.
type SlabStats struct {
	// ClassID identifies the slab class.
	ClassID int `json:"classId"`
	// ChunkSize is the fixed chunk size in bytes.
	ChunkSize int `json:"chunkSize"`
	// Pages is the number of 1 MiB pages assigned.
	Pages int `json:"pages"`
	// ArenaBytes is the arena memory backing the class: Pages × PageSize.
	ArenaBytes int64 `json:"arenaBytes"`
	// Items is the number of resident items.
	Items int `json:"items"`
	// UsedChunks is the number of occupied chunks (== Items).
	UsedChunks int `json:"usedChunks"`
	// Evictions counts LRU evictions from this class.
	Evictions uint64 `json:"evictions"`
}

// classForSize returns the index of the smallest class whose chunk fits
// need bytes, or -1 if the item exceeds a page.
func classForSize(classes []int, need int) int {
	// Linear scan is fine: there are ~40 classes and the loop is branch-
	// predictable; callers on hot paths cache the result per size anyway.
	for i, c := range classes {
		if need <= c {
			return i
		}
	}
	return -1
}

// classFor sizes an item of key and valueLen payload bytes, expiring at
// expire (nanoNone = never), into its slab class. Every store path — set,
// touch and import alike — sizes through it, so a key longer than the
// chunk header's 16-bit keyLen holds is refused here rather than stored
// resident but unreachable.
func (c *Cache) classFor(key []byte, valueLen int, expire int64) (int, error) {
	if len(key) > maxKeyLen {
		return -1, fmt.Errorf("cache: %d-byte key exceeds %d", len(key), maxKeyLen)
	}
	need := itemNeed(len(key), valueLen, expire)
	if id := classForSize(c.classes, need); id >= 0 {
		return id, nil
	}
	return -1, &ValueTooLargeError{Key: string(key), Need: need}
}

// ErrValueTooLarge is wrapped by Set when an item exceeds the page size.
type ValueTooLargeError struct {
	Key  string
	Need int
}

// Error implements the error interface.
func (e *ValueTooLargeError) Error() string {
	return fmt.Sprintf("cache: item %q needs %d bytes, exceeding the %d-byte page", e.Key, e.Need, PageSize)
}
