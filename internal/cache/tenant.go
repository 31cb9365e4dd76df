package cache

import (
	"errors"
	"fmt"
	"math"
	"slices"
)

// Multi-tenant namespaces over one arena (Memshare's sharing model): every
// item belongs to a tenant, tenants have page quotas with reserved floors
// and hard caps, and an external arbiter (arbiter.go) re-partitions pages
// between them by marginal miss-ratio-curve utility. Tenant 0 is the
// default namespace — untagged keys live there and its behavior is
// bit-identical to the pre-tenancy engine.
//
// A tenant is named by its key prefix and by nothing else: on a cache built
// WithTenantPrefix, "name<delim>rest" routes to the registered tenant
// "name". The key alone carries the tenant, so dumps, migration and
// snapshots move every tenant's items and the importer re-resolves them.

var (
	// ErrTenantName is returned by RegisterTenant for unusable names.
	ErrTenantName = errors.New("cache: invalid tenant name")
	// ErrTenantLimit is returned when the 16-bit tenant ID space is full.
	ErrTenantLimit = errors.New("cache: too many tenants")
	// ErrTenantNoPrefix is returned by RegisterTenant on a cache built
	// without WithTenantPrefix: no key could ever name the tenant.
	ErrTenantNoPrefix = errors.New("cache: tenants need a key prefix delimiter (WithTenantPrefix)")
)

// TenantConfig sizes a tenant's slice of the page budget.
type TenantConfig struct {
	// ReservedPages is the guaranteed floor: page steals never push the
	// tenant below it, and other tenants cannot claim pages that would make
	// the floor unmeetable.
	ReservedPages int
	// MaxPages caps the tenant's quota; 0 means the whole budget.
	MaxPages int
}

// RegisterTenant creates (or re-configures) a named tenant and returns its
// ID. Registration is cheap and idempotent by name; it pre-grows per-shard
// tables so the serving path never allocates for a registered tenant.
func (c *Cache) RegisterTenant(name string, cfg TenantConfig) (uint16, error) {
	if c.prefixDelim == 0 {
		return 0, ErrTenantNoPrefix
	}
	if name == "" || len(name) > 64 {
		return 0, fmt.Errorf("%w: %q", ErrTenantName, name)
	}
	for i := 0; i < len(name); i++ {
		if name[i] <= ' ' || name[i] == 0x7f || name[i] == c.prefixDelim {
			return 0, fmt.Errorf("%w: %q", ErrTenantName, name)
		}
	}
	c.regMu.Lock()
	old := c.reg.Load()
	id, known := old.byName[name]
	if !known {
		if len(old.names) > math.MaxUint16 {
			c.regMu.Unlock()
			return 0, ErrTenantLimit
		}
		id = uint16(len(old.names))
		names := append(append(make([]string, 0, len(old.names)+1), old.names...), name)
		byName := make(map[string]uint16, len(old.byName)+1)
		for k, v := range old.byName {
			byName[k] = v
		}
		byName[name] = id
		c.growPageSets(int(id) + 1)
		c.reg.Store(&tenantRegistry{names: names, byName: byName})
	}
	c.regMu.Unlock()

	p := &c.pool
	p.mu.Lock()
	t := p.ensureTenantLocked(id)
	t.reserved = min(cfg.ReservedPages, p.max)
	t.cap = p.max
	if cfg.MaxPages > 0 {
		t.cap = min(cfg.MaxPages, p.max)
	}
	if t.cap < t.reserved {
		t.cap = t.reserved
	}
	t.quota = t.cap
	p.gen.Add(1)
	p.mu.Unlock()

	nc := len(c.classes)
	for _, sh := range c.shards {
		sh.mu.Lock()
		sh.tstat(id)
		for (int(id)+1)*nc > len(sh.slabs) {
			sh.slabs = append(sh.slabs, nil)
		}
		sh.mu.Unlock()
	}
	return id, nil
}

// SetTenantQuota sets a tenant's current page allowance, clamped to
// [reserved, cap]. The arbiter turns this knob; tests and static-partition
// setups use it directly. Lowering a quota below the tenant's current
// holding does not reclaim pages by itself — pair it with StealPage (or let
// the arbiter do both).
func (c *Cache) SetTenantQuota(id uint16, quota int) {
	p := &c.pool
	p.mu.Lock()
	t := p.ensureTenantLocked(id)
	t.quota = max(min(quota, t.cap), t.reserved)
	p.gen.Add(1)
	p.mu.Unlock()
}

// TenantStats is one tenant's aggregate view: counters summed across
// shards plus the page-pool quota state.
type TenantStats struct {
	// ID and Name identify the tenant; ID 0 is the default namespace "".
	ID   uint16 `json:"id"`
	Name string `json:"name"`
	// Hits, Misses, Sets, Evictions, and Expirations are op counters.
	Hits        uint64 `json:"hits"`
	Misses      uint64 `json:"misses"`
	Sets        uint64 `json:"sets"`
	Evictions   uint64 `json:"evictions"`
	Expirations uint64 `json:"expirations"`
	// Items and Bytes are the resident footprint (chunk-accounted).
	Items int   `json:"items"`
	Bytes int64 `json:"bytes"`
	// Pages is the tenant's current page holding; Reserved/Quota/MaxPages
	// are its floor, current allowance, and ceiling.
	Pages    int `json:"pages"`
	Reserved int `json:"reserved"`
	Quota    int `json:"quota"`
	MaxPages int `json:"maxPages"`
	// PagesStolen counts pages the arbiter has taken from this tenant.
	PagesStolen uint64 `json:"pagesStolen"`
}

// TenantStats snapshots every known tenant (default namespace included).
// Shards are locked one at a time, so the snapshot is per-shard consistent.
func (c *Cache) TenantStats() []TenantStats {
	reg := c.reg.Load()
	p := &c.pool
	p.mu.Lock()
	n := len(p.tenants)
	out := make([]TenantStats, n)
	for i := 0; i < n; i++ {
		t := p.tenants[i]
		out[i] = TenantStats{
			ID: uint16(i), Pages: t.assigned, Reserved: t.reserved,
			Quota: t.quota, MaxPages: t.cap, PagesStolen: t.steals,
		}
	}
	p.mu.Unlock()
	for i := range out {
		if i < len(reg.names) {
			out[i].Name = reg.names[i]
		}
	}
	for _, sh := range c.shards {
		sh.mu.Lock()
		for i := range sh.tstats {
			if i >= n {
				break
			}
			ts := &sh.tstats[i]
			out[i].Hits += ts.hits
			out[i].Misses += ts.misses
			out[i].Sets += ts.sets
			out[i].Evictions += ts.evictions
			out[i].Expirations += ts.expirations
			out[i].Items += ts.items
			out[i].Bytes += ts.bytes
		}
		sh.mu.Unlock()
	}
	return out
}

// StealPage moves one page of allowance from tenant `from` to tenant `to`,
// physically reclaiming the donor's coldest page when it holds more than
// its shrunken quota. It refuses moves that would break the donor's
// reserved floor or overflow the receiver's cap. This is the arbiter's
// primitive — never called on a serving path.
func (c *Cache) StealPage(from, to uint16) bool {
	p := &c.pool
	p.mu.Lock()
	ft := p.ensureTenantLocked(from)
	tt := p.ensureTenantLocked(to)
	if from == to || ft.quota <= ft.reserved || tt.quota >= tt.cap {
		p.mu.Unlock()
		return false
	}
	ft.quota--
	tt.quota++
	p.gen.Add(1)
	needReclaim := ft.assigned > ft.quota
	if needReclaim {
		ft.steals++
	}
	p.mu.Unlock()
	if !needReclaim {
		return true // the allowance moved out of the donor's free headroom
	}
	if c.reclaimPage(from) {
		return true
	}
	// Nothing physical to reclaim (all holdings raced away): undo.
	p.mu.Lock()
	ft = p.ensureTenantLocked(from)
	tt = p.ensureTenantLocked(to)
	ft.quota++
	tt.quota--
	ft.steals--
	p.gen.Add(1)
	p.mu.Unlock()
	return false
}

// reclaimPage frees one page of the tenant: from its coldest class — the
// one whose oldest shard LRU tail is oldest, where a class with pages but
// no residents is free to take — the page with the fewest residents. The
// reclaim is page-centric: the page leaves its class set (so no shard is
// handed a never-used chunk of it) and is marked draining (so no shard
// reuses a freed chunk of it), its residents are evicted one shard lock at
// a time, never nested, and the emptied page returns to the pool.
func (c *Cache) reclaimPage(tid uint16) bool {
	c.reclaimMu.Lock()
	defer c.reclaimMu.Unlock()
	classID, ok := c.coldestClass(tid)
	if !ok {
		return false
	}
	cp := c.classPagesAt(int(tid)*len(c.classes) + classID)
	id := c.fewestResidentPage(tid, classID, cp)

	cp.mu.Lock()
	cp.removeLocked(id)
	c.pool.draining[id].Store(true)
	cp.mu.Unlock()
	for _, sh := range c.shards {
		sh.mu.Lock()
		sh.drainPageLocked(sh.slabAt(tid, classID), id)
		sh.mu.Unlock()
	}
	c.pool.release(id)
	return true
}

// coldestClass picks the tenant's reclaim victim class among those holding
// pages. Each shard lock is taken once.
func (c *Cache) coldestClass(tid uint16) (int, bool) {
	nc := len(c.classes)
	sets := (*c.pageSets.Load())[int(tid)*nc : int(tid+1)*nc]
	tails := make([]int64, nc)
	for classID, cp := range sets {
		tails[classID] = math.MaxInt64
		if pages, _ := cp.snapshot(); pages > 0 {
			tails[classID] = math.MinInt64 // no residents seen yet: free to take
		}
	}
	seen := make([]bool, nc)
	for _, sh := range c.shards {
		sh.mu.Lock()
		for classID := range tails {
			if tails[classID] == math.MaxInt64 {
				continue // no pages
			}
			sl := sh.slabAt(tid, classID)
			if sl.list.tail == nilRef {
				continue
			}
			ts := chAccess(c.pool.chunkAt(sl.list.tail))
			if !seen[classID] || ts < tails[classID] {
				tails[classID], seen[classID] = ts, true
			}
		}
		sh.mu.Unlock()
	}
	victim := slices.Index(tails, slices.Min(tails))
	return victim, tails[victim] != math.MaxInt64
}

// fewestResidentPage picks the class page whose reclaim costs the fewest
// evictions, tallying residents per page ID in a table reused across
// reclaims. Callers hold reclaimMu.
func (c *Cache) fewestResidentPage(tid uint16, classID int, cp *classPages) uint32 {
	if c.reclaimCounts == nil {
		c.reclaimCounts = make([]int32, c.pool.max)
	}
	counts := c.reclaimCounts
	for _, sh := range c.shards {
		sh.mu.Lock()
		sh.slabAt(tid, classID).list.each(&c.pool, func(ref itemRef, _ []byte) bool {
			counts[ref.page()]++
			return true
		})
		sh.mu.Unlock()
	}
	cp.mu.Lock()
	defer cp.mu.Unlock()
	best := cp.pageIDs[0]
	for _, pg := range cp.pageIDs {
		if counts[pg] < counts[best] {
			best = pg
		}
	}
	for _, pg := range cp.pageIDs {
		counts[pg] = 0
	}
	return best
}

// drainPageLocked evicts the shard's residents on a page being reclaimed
// and drops the page's chunks from the shard's free list, so nothing in
// the shard refers to the page afterwards. Callers hold sh.mu.
func (sh *shard) drainPageLocked(sl *slab, pageID uint32) {
	pool := &sh.owner.pool
	for ref := sl.list.head; ref != nilRef; {
		next := chNext(pool.chunkAt(ref))
		if ref.page() == pageID {
			sh.evictLocked(sl, ref)
		}
		ref = next
	}
	free := sl.freeHead
	sl.freeHead = nilRef
	for ref := free; ref != nilRef; {
		next := chNext(pool.chunkAt(ref))
		if ref.page() != pageID {
			sl.pushFree(pool, ref)
		}
		ref = next
	}
}

// enableSampling arms per-shard access sampling with the given buffer
// capacity (samples per shard between arbiter drains). Idempotent.
func (c *Cache) enableSampling(perShard int) {
	for _, sh := range c.shards {
		sh.mu.Lock()
		if cap(sh.samples) < perShard {
			sh.samples = make([]uint64, 0, perShard)
		}
		sh.sampleOn = true
		sh.mu.Unlock()
	}
}

// drainSamples hands every buffered access sample to fn and resets the
// buffers. Samples are (tenant, hash) pairs in per-shard arrival order.
func (c *Cache) drainSamples(fn func(tid uint16, h uint64)) int {
	n := 0
	for _, sh := range c.shards {
		sh.mu.Lock()
		for _, s := range sh.samples {
			fn(uint16(s>>48), s&sampleHashMask)
			n++
		}
		sh.samples = sh.samples[:0]
		sh.mu.Unlock()
	}
	return n
}
