// Package cache is a faithful Go reimplementation of the Memcached storage
// core the ElMem paper builds on (Section II-A), plus the two custom
// extensions the paper adds to Memcached's source (Section V-A1):
//
//   - memory is split into 1 MiB pages, grouped into slab classes of
//     fixed-size chunks (geometric size ladder) to minimize fragmentation;
//   - each slab class keeps its items in a doubly-linked list in MRU order,
//     so LRU eviction is O(1) tail removal;
//   - every item records its most-recent-access (MRU) timestamp;
//   - extension 1: a timestamp dump that writes a slab's (key, timestamp)
//     metadata in MRU order (the LRU-crawler-based dump command);
//   - extension 2: a batch import that prepends migrated KV pairs at the
//     head of the MRU list, evicting colder tail items as needed.
//
// A Cache is one Memcached node's storage engine. It is safe for concurrent
// use. Where classic memcached 1.4.x serializes every operation on one
// global lock, this engine is lock-striped: keys route by FNV-1a hash onto
// a power-of-two number of shards, each with its own lock, key index, and
// per-class MRU and free lists, while pages stay memcached's: each 1 MiB
// page belongs to one slab class, shared by every shard, behind a per-class
// lock taken only to hand out a never-used chunk.
//
// Storage is arena-backed (bigcache/freecache/fastcache lineage): the page
// budget is one mapping outside the Go heap, carved into real 1 MiB pages;
// every item lives entirely inside its fixed-size chunk (header + key +
// value), items are addressed by packed itemRefs rather than pointers, and
// the per-shard key table is a pointer-free open-addressing index. The
// resident set is therefore invisible to the garbage collector — GC mark
// work is O(index slots), not O(items), and the heap goal excludes the
// arena — while the ElMem-visible semantics are unchanged: timestamp
// dumps k-way-merge the per-shard MRU runs into one globally
// recency-ordered list, and Item/ItemMeta/KV copies are materialized only
// at dump/stream boundaries (see DESIGN.md, "Arena-backed slabs").
package cache

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

var (
	// ErrNotFound is returned by Get/Delete for absent keys.
	ErrNotFound = errors.New("cache: key not found")
	// ErrOutOfMemory is returned when an insert cannot obtain a chunk: the
	// class has no free chunks, no pages remain unassigned, and the class
	// has nothing to evict.
	ErrOutOfMemory = errors.New("cache: out of memory")
	// ErrEmptyKey is returned for zero-length keys.
	ErrEmptyKey = errors.New("cache: empty key")
)

// Stats is a point-in-time snapshot of a Cache. Per-class entries
// aggregate across shards; per-shard entries expose the stripe-level split.
type Stats struct {
	// Hits and Misses count Get outcomes.
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
	// Sets counts successful Set calls.
	Sets uint64 `json:"sets"`
	// Evictions counts LRU tail drops across all classes.
	Evictions uint64 `json:"evictions"`
	// Expirations counts items reclaimed by TTL expiry.
	Expirations uint64 `json:"expirations"`
	// ImportRefused counts migrated pairs BatchImport dropped because
	// their slab class could get no chunk (the pool exhausted and nothing
	// of the class to evict).
	ImportRefused uint64 `json:"importRefused"`
	// Items is the number of resident items.
	Items int `json:"items"`
	// BytesUsed is the chunk-accounted resident size.
	BytesUsed int64 `json:"bytesUsed"`
	// ArenaBytes is the total arena memory backing assigned pages.
	ArenaBytes int64 `json:"arenaBytes"`
	// ArenaTouchedBytes is the arena memory the classes have ever written:
	// per class page set, the chunks its bump cursor has handed out ×
	// chunk size (a reclaimed page's chunks leave the count with it).
	// Untouched pages cost only address space, so this — not ArenaBytes —
	// is what the node's RSS follows.
	ArenaTouchedBytes int64 `json:"arenaTouchedBytes"`
	// AssignedPages and MaxPages describe page-pool usage.
	AssignedPages int `json:"assignedPages"`
	MaxPages      int `json:"maxPages"`
	// Slabs holds per-class snapshots (aggregated across shards and
	// tenants) for classes with at least one page.
	Slabs []SlabStats `json:"slabs"`
	// Shards holds per-shard counter snapshots, one per lock stripe.
	Shards []ShardStat `json:"shards"`
}

// tenantRegistry is the immutable name↔ID table, swapped whole on
// registration so hot-path reads are one atomic load with no lock.
type tenantRegistry struct {
	names  []string // tenant ID → name; index 0 is the default namespace ""
	byName map[string]uint16
}

// Cache is one node's Memcached storage engine: a set of lock-striped
// shards over per-class page sets drawn from a shared arena page pool.
type Cache struct {
	classes []int    // chunk size per class index
	shards  []*shard // power-of-two lock stripes
	mask    uint64   // len(shards) - 1

	pool pagePool
	// pageSets holds every (tenant, class) page set, slot-indexed like
	// shard.slabs (tenantID*len(classes) + classID). RegisterTenant
	// publishes a longer copy, under regMu, before the tenant's name
	// resolves, so every routable slot has its page set.
	pageSets atomic.Pointer[[]*classPages]
	// reclaimMu serializes page reclaims, which makes the victim page stay
	// in its class until the reclaim removes it, and guards reclaimCounts,
	// the per-page resident tally indexed by page ID. AppendPicks holds it
	// too, so no reclaim is half done while picks are read back.
	reclaimMu     sync.Mutex
	reclaimCounts []int32
	// scanMaxHold is the longest page hold of the scanner so far, in
	// nanoseconds (scan.go).
	scanMaxHold atomic.Int64

	// reg is the tenant name registry; prefixDelim, when non-zero, enables
	// key-prefix tenant resolution ("tenant<delim>rest" routes to tenant).
	// regMu serializes registrations; reads are lock-free.
	reg         atomic.Pointer[tenantRegistry]
	regMu       sync.Mutex
	prefixDelim byte

	nanos  func() int64 // the clock, read as stored nanos; every op stamps recency
	casSeq atomic.Uint64
}

// Option configures a Cache.
type Option interface {
	apply(*cacheOptions)
}

type cacheOptions struct {
	growthFactor float64
	now          func() time.Time
	shards       int
	tenantPrefix byte
}

type growthFactorOption float64

func (o growthFactorOption) apply(opts *cacheOptions) { opts.growthFactor = float64(o) }

// WithGrowthFactor overrides the slab chunk growth factor (default 1.25).
func WithGrowthFactor(f float64) Option { return growthFactorOption(f) }

type clockOption struct{ now func() time.Time }

func (o clockOption) apply(opts *cacheOptions) { opts.now = o.now }

// WithClock injects the time source used for MRU timestamps and expiry
// checks. The simulator passes its virtual clock; the default is a
// monotonic clock (like clock.NewMonotonic) so recency ordering survives
// wall-clock steps.
func WithClock(now func() time.Time) Option { return clockOption{now: now} }

type shardsOption int

func (o shardsOption) apply(opts *cacheOptions) { opts.shards = int(o) }

// WithShards overrides the lock-stripe count, rounded up to a power of two
// (minimum 1). The default is max(16, GOMAXPROCS), capped at one shard per
// 8 pages of the budget (minPagesPerShard) — a one-page cache therefore
// degenerates to a single shard with the classic single-lock semantics.
func WithShards(n int) Option { return shardsOption(n) }

type tenantPrefixOption byte

func (o tenantPrefixOption) apply(opts *cacheOptions) { opts.tenantPrefix = byte(o) }

// WithTenantPrefix enables key-prefix tenant resolution: a key of the form
// "name<delim>rest" whose prefix names a registered tenant is served from
// that tenant's namespace (quota, accounting, MRC). Keys with no delimiter
// or an unregistered prefix stay in the default namespace. Resolution costs
// one IndexByte plus a map probe and allocates nothing.
func WithTenantPrefix(delim byte) Option { return tenantPrefixOption(delim) }

// New creates a Cache with the given memory budget in bytes. The budget is
// rounded down to whole pages and must cover at least one page. The arena
// is reserved up front but costs only address space until slabs write
// chunks, so an idle Cache costs only its page tables; an arena that cannot
// be reserved is an error.
func New(memoryBytes int64, opts ...Option) (*Cache, error) {
	options := cacheOptions{growthFactor: DefaultGrowthFactor}
	for _, o := range opts {
		o.apply(&options)
	}
	maxPages := int(memoryBytes / PageSize)
	if maxPages < 1 {
		return nil, fmt.Errorf("cache: memory budget %d bytes is below one %d-byte page", memoryBytes, PageSize)
	}
	shardCount := options.shards
	if shardCount <= 0 {
		shardCount = defaultShardCount(maxPages)
	} else {
		shardCount = min(ceilPow2(shardCount), maxShards)
	}
	c := &Cache{
		classes:     sizeClasses(options.growthFactor),
		mask:        uint64(shardCount - 1),
		prefixDelim: options.tenantPrefix,
	}
	if err := c.pool.init(maxPages, c.classes); err != nil {
		return nil, err
	}
	c.growPageSets(1)
	c.reg.Store(&tenantRegistry{names: []string{""}, byName: map[string]uint16{}})
	if options.now != nil {
		c.nanos = func() int64 { return toNano(options.now()) }
	} else {
		// Default monotonic clock, flattened to nanoseconds up front: every
		// Get/Set stamps recency, and building a time.Time just to convert
		// it back to nanos costs a second clock read plus a 24-byte struct
		// round-trip. time.Since on a monotonic base is one nanotime read.
		base := time.Now()
		baseNano := base.UnixNano()
		c.nanos = func() int64 { return baseNano + int64(time.Since(base)) }
	}
	c.shards = make([]*shard, shardCount)
	for i := range c.shards {
		c.shards[i] = newShard(c, i)
	}
	return c, nil
}

// growPageSets extends the page-set table to cover tenants [0, tenants).
// Callers serialize through New or regMu.
func (c *Cache) growPageSets(tenants int) {
	var sets []*classPages
	if old := c.pageSets.Load(); old != nil {
		sets = *old
	}
	nc := len(c.classes)
	if len(sets) >= tenants*nc {
		return
	}
	grown := make([]*classPages, len(sets), tenants*nc)
	copy(grown, sets)
	for slot := len(sets); slot < tenants*nc; slot++ {
		grown = append(grown, newClassPages(uint16(slot/nc), slot%nc, c.classes[slot%nc]))
	}
	c.pageSets.Store(&grown)
}

// classPagesAt returns the page set of a (tenant, class) slot.
func (c *Cache) classPagesAt(slot int) *classPages { return (*c.pageSets.Load())[slot] }

// nowNano reads the clock as a stored-timestamp nanosecond count.
func (c *Cache) nowNano() int64 { return c.nanos() }

// Now reads the cache's clock, which stamps recency and checks expiry: a
// TTL turned into an expiry for this cache must count from here.
func (c *Cache) Now() time.Time { return fromNano(c.nanos()) }

// resolveTenant maps a key to its tenant: when prefix mode is on, the key's
// "name<delim>" prefix is looked up in the registry. Unknown prefixes and
// bare keys stay in the default namespace. Allocation-free.
func (c *Cache) resolveTenant(key []byte) uint16 {
	if c.prefixDelim == 0 {
		return 0
	}
	i := bytes.IndexByte(key, c.prefixDelim)
	if i <= 0 {
		return 0
	}
	return c.reg.Load().byName[string(key[:i])]
}

// route resolves a key's tenant, routing hash, and lock stripe.
func (c *Cache) route(key []byte) (uint16, uint64, *shard) {
	tid := c.resolveTenant(key)
	h := shardHashT(tid, key)
	return tid, h, c.shards[h&c.mask]
}

// ShardCount reports the number of lock stripes.
func (c *Cache) ShardCount() int { return len(c.shards) }

// Get returns a copy of the value for key and refreshes its MRU position
// and timestamp, or ErrNotFound. The hot path's allocation-free variant is
// GetInto, which also reports the item's flags and CAS token.
func (c *Cache) Get(key string) ([]byte, error) {
	kb := sbytes(key)
	tid, h, sh := c.route(kb)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	nowNano := c.nowNano()
	sh.sampleAccess(tid, h)
	ref, ch, ok := sh.lookupLocked(h, tid, kb, nowNano)
	if !ok {
		sh.misses++
		sh.tstat(tid).misses++
		return nil, fmt.Errorf("get %q: %w", key, ErrNotFound)
	}
	sh.hits++
	sh.tstat(tid).hits++
	setChAccess(ch, nowNano)
	sh.slabFor(ref).list.moveToFront(&c.pool, ref)
	v := chValue(ch)
	return append(make([]byte, 0, len(v)), v...), nil
}

// Peek returns a copy of the value for key without refreshing recency or
// counting a hit/miss. Agents use it during migration so metadata reads do
// not perturb hotness.
func (c *Cache) Peek(key string) ([]byte, bool) {
	kb := sbytes(key)
	tid, h, sh := c.route(kb)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	ch, ok := sh.peekLocked(h, tid, kb, c.nowNano())
	if !ok {
		return nil, false
	}
	v := chValue(ch)
	return append(make([]byte, 0, len(v)), v...), true
}

// PeekFull is Peek returning the item's flags and absolute expiry along
// with the value copy, still without refreshing recency or counting a
// hit/miss. The hot-key replicator uses it to push a promoted value to its
// replicas with the original store metadata intact.
func (c *Cache) PeekFull(key string) (value []byte, flags uint32, expiresAt time.Time, ok bool) {
	kb := sbytes(key)
	tid, h, sh := c.route(kb)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	ch, found := sh.peekLocked(h, tid, kb, c.nowNano())
	if !found {
		return nil, 0, time.Time{}, false
	}
	v := chValue(ch)
	return append(make([]byte, 0, len(v)), v...), chFlags(ch), fromNano(chExpire(ch)), true
}

// Contains reports key residence without touching recency.
func (c *Cache) Contains(key string) bool {
	kb := sbytes(key)
	tid, h, sh := c.route(kb)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	_, ok := sh.peekLocked(h, tid, kb, c.nowNano())
	return ok
}

// Set stores a copy of the value under key with zero flags, updating MRU
// state. It evicts LRU items of the same class as needed. The wire hot
// path's byte-key variant is SetBytes.
func (c *Cache) Set(key string, value []byte) error {
	if key == "" {
		return ErrEmptyKey
	}
	kb := sbytes(key)
	tid, h, sh := c.route(kb)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.setLocked(h, tid, kb, value, 0, nanoNone, c.nowNano())
}

// Delete removes key, or returns ErrNotFound.
func (c *Cache) Delete(key string) error {
	kb := sbytes(key)
	tid, h, sh := c.route(kb)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	// lookupLocked lazily reclaims an expired resident item and reports a
	// miss, so deleting one returns NotFound — memcached's semantics.
	ref, ch, ok := sh.lookupLocked(h, tid, kb, c.nowNano())
	if !ok {
		return fmt.Errorf("delete %q: %w", key, ErrNotFound)
	}
	sh.removeLocked(ref, ch)
	return nil
}

// FlushAll drops every item but keeps page assignments, like memcached's
// flush_all. Every shard lock is held at once (in stripe order) while the
// class page sets rewind their cursors: a page's chunks may belong to any
// shard, so no shard may allocate between the sweep and the rewind.
func (c *Cache) FlushAll() {
	for _, sh := range c.shards {
		sh.mu.Lock()
	}
	for _, sh := range c.shards {
		sh.idx.reset()
		for _, sl := range sh.slabs {
			if sl != nil {
				sl.reset()
			}
		}
		for i := range sh.tstats {
			sh.tstats[i].items = 0
			sh.tstats[i].bytes = 0
		}
	}
	for _, cp := range *c.pageSets.Load() {
		cp.mu.Lock()
		cp.rewindLocked()
		for _, id := range cp.pageIDs {
			c.pool.epochs[id].Add(1) // a rewound chunk may go to any shard
		}
		cp.mu.Unlock()
	}
	for _, sh := range c.shards {
		sh.mu.Unlock()
	}
}

// Len returns the number of resident items.
func (c *Cache) Len() int {
	n := 0
	for _, sh := range c.shards {
		sh.mu.Lock()
		n += sh.items()
		sh.mu.Unlock()
	}
	return n
}

// Capacity returns the total item capacity of currently assigned pages plus
// pages still unassigned, in bytes (page-granular budget).
func (c *Cache) Capacity() int64 {
	return int64(c.pool.max) * PageSize
}

// Stats snapshots counters, per-class state (aggregated across shards and
// tenants), and the per-shard counter split. Shards are locked one at a
// time, so the snapshot is per-shard consistent, not globally atomic.
func (c *Cache) Stats() Stats {
	st := Stats{MaxPages: c.pool.max}
	type classAgg struct {
		pages, items, used, touched int
		evictions                   uint64
	}
	nc := len(c.classes)
	agg := make([]classAgg, nc)
	for i, sh := range c.shards {
		sh.mu.Lock()
		st.Hits += sh.hits
		st.Misses += sh.misses
		st.Sets += sh.sets
		st.Evictions += sh.evictions
		st.Expirations += sh.expirations
		st.ImportRefused += sh.importRefused
		st.Items += sh.items()
		for slot, sl := range sh.slabs {
			if sl != nil {
				a := &agg[slot%nc]
				a.items += sl.list.size
				a.used += sl.used
				a.evictions += sl.evictions
			}
		}
		st.Shards = append(st.Shards, ShardStat{
			Shard:     i,
			Items:     sh.items(),
			Hits:      sh.hits,
			Misses:    sh.misses,
			Sets:      sh.sets,
			Evictions: sh.evictions,
		})
		sh.mu.Unlock()
	}
	for slot, cp := range *c.pageSets.Load() {
		pages, touched := cp.snapshot()
		agg[slot%nc].pages += pages
		agg[slot%nc].touched += touched
	}
	st.AssignedPages = c.pool.assignedCount()
	st.ArenaBytes = int64(st.AssignedPages) * PageSize
	for classID, a := range agg {
		if a.pages == 0 {
			continue
		}
		st.BytesUsed += int64(a.used) * int64(c.classes[classID])
		st.ArenaTouchedBytes += int64(a.touched) * int64(c.classes[classID])
		st.Slabs = append(st.Slabs, SlabStats{
			ClassID:    classID,
			ChunkSize:  c.classes[classID],
			Pages:      a.pages,
			ArenaBytes: int64(a.pages) * PageSize,
			Items:      a.items,
			UsedChunks: a.used,
			Evictions:  a.evictions,
		})
	}
	return st
}

// ChunkSizes returns the slab class ladder.
func (c *Cache) ChunkSizes() []int {
	out := make([]int, len(c.classes))
	copy(out, c.classes)
	return out
}
