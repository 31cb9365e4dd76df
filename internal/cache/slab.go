package cache

import "fmt"

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
	// ItemOverhead is the per-item storage overhead: exactly the in-chunk
	// header (list links, CAS, timestamps, flags, lengths, class ID, padding
	// — see arena.go). An item of keyLen+valueLen payload occupies the
	// smallest chunk ≥ keyLen+valueLen+ItemOverhead; the codec and every
	// classForSize caller share this constant, so class selection always
	// matches the physical layout (pinned by TestChunkHeaderLayout).
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

// slab is one (shard, class) slab: a chunk size, the arena pages it owns,
// and the MRU-ordered ref list of resident items. Chunks are handed out by
// bump allocation through the owned pages, and freed chunks are recycled
// through a free list chained via the chunks' next fields.
type slab struct {
	classID   int
	chunkSize int
	// tenant owns every page (and item) in this slab: slabs are per
	// (shard, tenant, class), so page accounting and eviction stay exact.
	tenant uint16

	// chunksPerPage is how many chunks one page yields.
	chunksPerPage uint32

	// pageIDs are the pool pages assigned to this slab, in acquisition
	// order. Classic memcached never returns pages to the global pool.
	pageIDs []uint32
	// bumpPage/bumpChunk is the bump-allocation cursor: the next
	// never-used chunk is pageIDs[bumpPage] chunk bumpChunk.
	bumpPage  int
	bumpChunk uint32
	// touched is the bump cursor's high-water mark in chunks, saved when
	// the cursor rewinds; see touchedChunks.
	touched int

	// freeHead chains recycled chunks (delete, expiry, class-change
	// reinsert) through their next fields.
	freeHead itemRef

	// used is the number of occupied chunks.
	used int

	// list holds the class's items in MRU order.
	list refList

	// evictions counts LRU tail drops from this class.
	evictions uint64
}

func newSlab(tenant uint16, classID, chunkSize int) *slab {
	return &slab{
		classID:       classID,
		chunkSize:     chunkSize,
		tenant:        tenant,
		chunksPerPage: uint32(PageSize / chunkSize),
	}
}

// pages is the number of 1 MiB pages assigned to this slab.
func (s *slab) pages() int { return len(s.pageIDs) }

// capacity is the total chunks across assigned pages.
func (s *slab) capacity() int { return len(s.pageIDs) * int(s.chunksPerPage) }

// freeChunks is the number of unoccupied chunks in assigned pages.
func (s *slab) freeChunks() int { return s.capacity() - s.used }

// pushFree recycles a chunk onto the free list.
func (s *slab) pushFree(p *pagePool, ref itemRef) {
	setChNext(p.chunkAt(ref), s.freeHead)
	s.freeHead = ref
}

// takeChunk returns a free chunk if one is available without evicting:
// first from the free list, then by bumping through assigned pages.
func (s *slab) takeChunk(p *pagePool) (itemRef, bool) {
	if s.freeHead != nilRef {
		ref := s.freeHead
		s.freeHead = chNext(p.chunkAt(ref))
		return ref, true
	}
	for s.bumpPage < len(s.pageIDs) {
		if s.bumpChunk < s.chunksPerPage {
			ref := makeRef(s.pageIDs[s.bumpPage], s.bumpChunk)
			s.bumpChunk++
			return ref, true
		}
		s.bumpPage++
		s.bumpChunk = 0
	}
	return nilRef, false
}

// touchedChunks is how many chunks the bump cursor has ever handed out —
// the chunks of this slab the kernel has had to back with memory.
func (s *slab) touchedChunks() int {
	return max(s.touched, s.bumpPage*int(s.chunksPerPage)+int(s.bumpChunk))
}

// resetChunks drops every resident item, keeping the assigned pages
// (FlushAll): the bump cursor rewinds, the free list empties, and the MRU
// list resets.
func (s *slab) resetChunks() {
	s.touched = s.touchedChunks()
	s.bumpPage = 0
	s.bumpChunk = 0
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

// classFor sizes an item of key and valueLen payload bytes into its slab
// class. Every store path — set and import alike — sizes through it, so a
// key longer than the chunk header's 16-bit keyLen holds is refused here
// rather than stored resident but unreachable.
func (c *Cache) classFor(key []byte, valueLen int) (int, error) {
	if len(key) > maxKeyLen {
		return -1, fmt.Errorf("cache: %d-byte key exceeds %d", len(key), maxKeyLen)
	}
	need := len(key) + valueLen + ItemOverhead
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
