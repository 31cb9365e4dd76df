package cache

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// Arena-backed item storage. The paper's 1 MiB slab pages (Section II-A)
// are real memory here: the page pool reserves the whole budget as one
// []byte outside the Go heap (arena_mmap.go), page id is
// mem[id*PageSize:(id+1)*PageSize], each page is carved into fixed-size
// chunks by the slab class it is assigned to, and every cached item lives
// *entirely inside its chunk* — header, key bytes, and value bytes. No
// per-item Go object exists and no page is a heap object, so the GC neither
// scans nor paces against the resident set, and the kernel backs only the
// chunks the slabs have written (see DESIGN.md, "Arena-backed slabs").
//
// Lifetime rule. The mapping is released by a finalizer once the owning
// Cache is unreachable, and nothing the GC can see points into it. That is
// safe because (a) every arena access happens between sh.mu.Lock and
// Unlock of a shard whose owner is the Cache, which keeps the pool's
// arenaMem reachable for the whole access; and (b) no arena byte escapes a
// call: every read API copies out (Get, GetWithCAS, Peek*, GetMulti*,
// GetInto, TopMeta, AppendPairs, AppendPicks, DumpClass, snapshots). A slice of the
// arena held past its Cache faults; TestArenaReadsOutliveCache pins (b).
//
// Items are addressed by a packed itemRef (page index, chunk index)
// instead of a pointer. MRU lists chain refs through prev/next fields in
// the chunk header; the per-shard key index maps hash64 → itemRef and
// compares key bytes directly in the arena.
//
// Chunk layout (little-endian, offsets in bytes):
//
//	 0  next      uint32   — packed link: MRU forward / free-list link
//	 4  prev      uint32   — packed link: MRU backward link
//	 8  cas       uint64   — compare-and-swap token
//	16  access    int64    — MRU timestamp, unix nanos (nanoNone = zero time)
//	24  expire    int64    — absolute expiry, unix nanos (nanoNone = never)
//	32  flags     uint32   — client-opaque flags
//	36  valueLen  uint32
//	40  keyLen    uint16
//	42  classID   uint16
//	44  tenantID  uint16   — owning tenant (0 = default namespace)
//	46  liveTag   uint16   — shard index + 1 while the chunk is linked in an
//	                         MRU list, 0 once unlinked (in the padding that
//	                         aligns the header to 8 bytes)
//	48  key bytes, immediately followed by value bytes
//
// The live tag is what lets the page-order scanner (scan.go) read a page
// without walking any list: a chunk below its class's bump cursor is a
// resident item exactly when its tag is non-zero, and the tag names the
// shard whose lock guards it. setLocked and importOneLocked set it when
// they link a new chunk; unlinkLocked clears it.
//
// The MRU links store refs in a packed 32-bit form — (page+1) in the high
// 18 bits, chunk index in the low 14 — rather than the full 64-bit itemRef.
// A chunk index never exceeds PageSize/MinChunkSize = 10922 < 2^14, and 18
// bits of page+1 address a 256 GiB arena (maxArenaPages), far past any
// single cache node this system targets. The 8 header bytes this saves
// keep the total at 48 — exactly classic memcached's per-item overhead, so
// class-fit arithmetic matches the paper's accounting.
const (
	hNext   = 0
	hPrev   = 4
	hCAS    = 8
	hAccess = 16
	hExpire = 24
	hFlags  = 32
	hVLen   = 36
	hKLen   = 40
	hClass  = 42
	hTenant = 44
	hTag    = 46

	// headerFieldBytes is the sum of the item field widths; the header is
	// padded to the next 8-byte boundary, and the live tag lives in that
	// padding. A test pins chunkHeaderSize (and therefore ItemOverhead) to
	// this layout.
	headerFieldBytes = 4 + 4 + 8 + 8 + 8 + 4 + 4 + 2 + 2 + 2
	chunkHeaderSize  = (headerFieldBytes + 7) &^ 7

	// linkChunkBits splits a packed 32-bit header link: low bits hold the
	// chunk index, the rest hold page+1.
	linkChunkBits = 14
	linkChunkMask = 1<<linkChunkBits - 1

	// maxArenaPages bounds the page table so page+1 fits a packed link.
	maxArenaPages = 1<<(32-linkChunkBits) - 2

	// maxKeyLen is the longest key the 16-bit keyLen header field holds.
	maxKeyLen = math.MaxUint16
)

// packLink compresses an itemRef into the 32-bit header-link form. The zero
// value stays the nil link.
func packLink(r itemRef) uint32 {
	return uint32(uint64(r)>>32)<<linkChunkBits | uint32(r)&linkChunkMask
}

// unpackLink expands a packed header link back to an itemRef.
func unpackLink(p uint32) itemRef {
	return itemRef(uint64(p>>linkChunkBits)<<32 | uint64(p&linkChunkMask))
}

// nanoNone is the stored-time sentinel for the zero time.Time: expiry
// "never" and the (never observed in practice) zero MRU timestamp. The
// same sentinel the binary migration codec uses for zero times.
const nanoNone = math.MinInt64

// toNano converts a time to its stored representation.
func toNano(t time.Time) int64 {
	if t.IsZero() {
		return nanoNone
	}
	return t.UnixNano()
}

// fromNano converts a stored timestamp back to a time.Time.
func fromNano(n int64) time.Time {
	if n == nanoNone {
		return time.Time{}
	}
	return time.Unix(0, n)
}

// itemRef addresses one chunk: (page index + 1) in the high 32 bits, chunk
// index within the page in the low 32. The zero value is the nil ref, so
// zeroed index slots and list heads start out empty for free.
type itemRef uint64

const nilRef itemRef = 0

// tombRef marks a deleted slot in the key index. It is never a valid ref:
// it decodes to page 2^32-2, which would need a ~4 EiB page table.
const tombRef itemRef = math.MaxUint64

func makeRef(page, chunk uint32) itemRef {
	return itemRef(uint64(page+1)<<32 | uint64(chunk))
}

func (r itemRef) page() uint32  { return uint32(r>>32) - 1 }
func (r itemRef) chunk() uint32 { return uint32(r) }

// tenantPages is one tenant's slice of the page budget: how many pages its
// classes currently hold, the floor the arbiter may never steal below, the
// current allowance (the knob the arbiter turns), and the hard ceiling.
type tenantPages struct {
	assigned int // pages currently held by this tenant's classes
	reserved int // guaranteed floor: steals never push assigned below it
	quota    int // current allowance; tryAcquire fails at or above it
	cap      int // hard ceiling: quota transfers never raise quota past it
	steals   uint64
}

// arenaMem owns the page memory. It is a leaf that only the pool points
// at, so it becomes unreachable together with its Cache, and mapArena's
// finalizer (if any) can release the memory then.
type arenaMem struct{ b []byte }

// liveArenas counts mapped arenas not yet released by their finalizer;
// tests poll it instead of sleeping.
var liveArenas atomic.Int64

// pagePool is the shared page allocator: the global 1 MiB page budget plus
// the arena memory itself. Pages are assigned to (tenant, class) page sets
// (classPages). Classic memcached never returns a page; here a page *can*
// leave its class — but only through the tenant arbiter's explicit page
// steal, which drains the page's residents from every shard first, hands
// its memory back to the kernel, and funnels the ID through freeIDs.
// Serving paths still never release pages, so for a single-tenant cache
// assignment remains the classic high-water counter.
//
// The chunkSizes table is sized at construction; a slot is (re)written
// only under the pool lock before the page ID is handed to a class, and a
// released page's ID passes through this lock again before reuse, so
// cross-class page reuse is properly ordered and chunk resolution itself
// never takes the pool lock.
type pagePool struct {
	mu        sync.Mutex
	max       int
	highWater int      // pages ever handed out (dense page-ID prefix)
	assigned  int      // pages currently held by any class
	freeIDs   []uint32 // stolen pages awaiting reassignment

	mem        []byte    // the whole budget; page id at mem[id*PageSize:]
	arena      *arenaMem // keeps mem mapped while the pool is reachable
	chunkSizes []uint32
	owner      []uint16      // page ID → owning tenant, valid while assigned
	tenants    []tenantPages // index = tenant ID; 0 is the default tenant

	// draining marks pages a reclaim is emptying: no shard takes one of
	// their chunks off its free list (slab.popFree). Set before the drain,
	// cleared on release.
	draining []atomic.Bool
	// gen advances whenever a page or quota comes free (release, quota
	// moves), so a class page set that found nothing to take can skip the
	// pool until it changes (classPages.full).
	gen atomic.Uint64
	// epochs advances a page's epoch whenever its chunks may change shard:
	// when the page is released (it may join another class, or come back
	// to this one, and be carved afresh) and when FlushAll rewinds its
	// class. While a page's epoch holds, each of its chunks stays with the
	// one shard that first took it, so a phase-1 pick that recorded the
	// epoch may be read back under that shard's lock alone (Pick).
	epochs []atomic.Uint32
}

// init sizes the pool for max pages and maps its arena.
func (p *pagePool) init(max int) error {
	// Header links address at most maxArenaPages pages (256 GiB); a budget
	// beyond that is clamped rather than refused — no realistic node gets
	// anywhere near it.
	if max > maxArenaPages {
		max = maxArenaPages
	}
	if max > math.MaxInt/PageSize {
		return fmt.Errorf("cache: %d-page arena exceeds the address space", max)
	}
	arena, err := mapArena(max * PageSize)
	if err != nil {
		return err
	}
	p.max = max
	p.mem = arena.b
	p.arena = arena
	p.chunkSizes = make([]uint32, max)
	p.owner = make([]uint16, max)
	// The default tenant starts with the whole budget; registration carves
	// quotas out for named tenants.
	p.tenants = []tenantPages{{quota: max, cap: max}}
	p.draining = make([]atomic.Bool, max)
	p.epochs = make([]atomic.Uint32, max)
	p.gen.Store(1)
	return nil
}

// ensureTenantLocked grows the tenant table through tid; callers hold p.mu.
// Unregistered tenants default to an uncapped quota (first-come page use),
// matching the pre-tenancy behavior for the default namespace.
func (p *pagePool) ensureTenantLocked(tid uint16) *tenantPages {
	for int(tid) >= len(p.tenants) {
		p.tenants = append(p.tenants, tenantPages{quota: p.max, cap: p.max})
	}
	return &p.tenants[tid]
}

// tryAcquire claims one page for tenant tid's class of the given chunk size.
// It returns the page ID; false means the tenant is at quota or the global
// budget is exhausted.
func (p *pagePool) tryAcquire(tid uint16, chunkSize int) (uint32, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	t := p.ensureTenantLocked(tid)
	if t.assigned >= t.quota {
		return 0, false
	}
	// Pages other tenants' reserved floors still lack are spoken for: a
	// grant may not eat into them, so reservations hold even before the
	// arbiter's first cycle. The tenant table is tiny (it is not the page
	// table), so the scan costs nothing on this already-slow path.
	short := 0
	for i := range p.tenants {
		if o := &p.tenants[i]; uint16(i) != tid && o.assigned < o.reserved {
			short += o.reserved - o.assigned
		}
	}
	if p.max-p.assigned <= short {
		return 0, false
	}
	var id uint32
	switch {
	case len(p.freeIDs) > 0:
		id = p.freeIDs[len(p.freeIDs)-1]
		p.freeIDs = p.freeIDs[:len(p.freeIDs)-1]
	case p.highWater < p.max:
		id = uint32(p.highWater)
		p.highWater++
	default:
		return 0, false
	}
	p.chunkSizes[id] = uint32(chunkSize)
	p.owner[id] = tid
	t.assigned++
	p.assigned++
	return id, true
}

// release returns a page, already drained from every shard, to the free
// pool, debiting its owner. The page's memory goes back to the kernel
// first (discardPage), so a reclaimed page stops counting toward RSS until
// a class writes it again.
func (p *pagePool) release(id uint32) {
	off := int(id) * PageSize
	discardPage(p.mem[off : off+PageSize])
	p.mu.Lock()
	defer p.mu.Unlock()
	tid := p.owner[id]
	p.tenants[tid].assigned--
	p.assigned--
	p.freeIDs = append(p.freeIDs, id)
	p.draining[id].Store(false)
	p.epochs[id].Add(1)
	p.gen.Add(1)
}

// chunkAt resolves a ref to its chunk bytes (header + key + value + slack).
func (p *pagePool) chunkAt(ref itemRef) []byte {
	pg := ref.page()
	cs := uint(p.chunkSizes[pg])
	off := uint(pg)*PageSize + uint(ref.chunk())*cs
	return p.mem[off : off+cs : off+cs]
}

// assignedCount reports pages handed out so far.
func (p *pagePool) assignedCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.assigned
}

// free reports pages still unassigned.
func (p *pagePool) free() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.max - p.assigned
}

// Chunk header accessors. All access is explicit little-endian byte
// encoding — no unsafe, no alignment assumptions.

func chNext(ch []byte) itemRef       { return unpackLink(binary.LittleEndian.Uint32(ch[hNext:])) }
func setChNext(ch []byte, r itemRef) { binary.LittleEndian.PutUint32(ch[hNext:], packLink(r)) }

func chPrev(ch []byte) itemRef       { return unpackLink(binary.LittleEndian.Uint32(ch[hPrev:])) }
func setChPrev(ch []byte, r itemRef) { binary.LittleEndian.PutUint32(ch[hPrev:], packLink(r)) }

func chCAS(ch []byte) uint64       { return binary.LittleEndian.Uint64(ch[hCAS:]) }
func setChCAS(ch []byte, v uint64) { binary.LittleEndian.PutUint64(ch[hCAS:], v) }

func chAccess(ch []byte) int64       { return int64(binary.LittleEndian.Uint64(ch[hAccess:])) }
func setChAccess(ch []byte, v int64) { binary.LittleEndian.PutUint64(ch[hAccess:], uint64(v)) }

func chExpire(ch []byte) int64       { return int64(binary.LittleEndian.Uint64(ch[hExpire:])) }
func setChExpire(ch []byte, v int64) { binary.LittleEndian.PutUint64(ch[hExpire:], uint64(v)) }

func chFlags(ch []byte) uint32       { return binary.LittleEndian.Uint32(ch[hFlags:]) }
func setChFlags(ch []byte, v uint32) { binary.LittleEndian.PutUint32(ch[hFlags:], v) }

func chVLen(ch []byte) int { return int(binary.LittleEndian.Uint32(ch[hVLen:])) }
func chKLen(ch []byte) int { return int(binary.LittleEndian.Uint16(ch[hKLen:])) }

func chClass(ch []byte) int { return int(binary.LittleEndian.Uint16(ch[hClass:])) }

func chTenant(ch []byte) uint16 { return binary.LittleEndian.Uint16(ch[hTenant:]) }

func chTag(ch []byte) uint16       { return binary.LittleEndian.Uint16(ch[hTag:]) }
func setChTag(ch []byte, v uint16) { binary.LittleEndian.PutUint16(ch[hTag:], v) }

// chKey returns the key bytes stored in the chunk.
func chKey(ch []byte) []byte {
	kl := chKLen(ch)
	return ch[chunkHeaderSize : chunkHeaderSize+kl]
}

// chValue returns the value bytes stored in the chunk.
func chValue(ch []byte) []byte {
	kl, vl := chKLen(ch), chVLen(ch)
	return ch[chunkHeaderSize+kl : chunkHeaderSize+kl+vl]
}

// chExpired reports whether the chunk's item is past expiry at nowNano.
func chExpired(ch []byte, nowNano int64) bool {
	e := chExpire(ch)
	return e != nanoNone && nowNano >= e
}

// writeChunk initializes a chunk with a complete item. The list links are
// left untouched — the caller links the ref afterwards. The tenant is
// always written: a stolen page's chunks are recycled across tenants, so a
// stale tenant field must never survive a rewrite.
func writeChunk(ch []byte, key, value []byte, flags uint32, cas uint64, access, expire int64, classID int, tenant uint16) {
	setChCAS(ch, cas)
	setChAccess(ch, access)
	setChExpire(ch, expire)
	setChFlags(ch, flags)
	binary.LittleEndian.PutUint32(ch[hVLen:], uint32(len(value)))
	binary.LittleEndian.PutUint16(ch[hKLen:], uint16(len(key)))
	binary.LittleEndian.PutUint16(ch[hClass:], uint16(classID))
	binary.LittleEndian.PutUint16(ch[hTenant:], tenant)
	copy(ch[chunkHeaderSize:], key)
	copy(ch[chunkHeaderSize+len(key):], value)
}

// setChValue overwrites the value of a chunk in place (same slab class, so
// header + key + new value is known to fit).
func setChValue(ch []byte, value []byte) {
	kl := chKLen(ch)
	binary.LittleEndian.PutUint32(ch[hVLen:], uint32(len(value)))
	copy(ch[chunkHeaderSize+kl:], value)
}
