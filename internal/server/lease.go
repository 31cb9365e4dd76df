// Lease tokens and the gutter pool: the serve-through half of an ownership
// handover. A miss on `lget` hands out a single fill token per key
// (memcached's 1.4.x lease idea): only the token holder may `lset` the
// value back, so a miss storm on a hot key costs the backing store one
// load instead of one per client. While a key is changing owner in a
// handover, its lease fills divert into the gutter pool — a small bounded
// FIFO side cache with a short TTL — so the incoming owner absorbs reads
// without polluting its slab-allocated cache with values the migration
// stream is about to deliver authoritatively.
//
// Both structures are gated by plain atomic counters on the Server
// (leaseCount, gutterCount): while no leases are outstanding and the
// gutter is empty, the get/set hot path pays one atomic load and a
// branch, and zero allocations.
package server

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/hashring"
)

const (
	// defaultLeaseTTL bounds how long a fill token stays valid: a client
	// that granted a lease but never filled it blocks other fillers only
	// this long (Facebook's memcache paper uses ~10s; handovers here are
	// much shorter).
	defaultLeaseTTL = 2 * time.Second
	// defaultLeaseMax bounds the lease table. When full (after an expired
	// sweep) further misses get token 0: back off and retry, no fill right.
	defaultLeaseMax = 4096

	// Gutter bounds: a deliberately tiny cache — it only has to absorb
	// reads for the seconds a handover lasts.
	defaultGutterTTL   = 10 * time.Second
	defaultGutterItems = 1024
	defaultGutterBytes = 1 << 20
)

// leaseEntry is one outstanding fill right.
type leaseEntry struct {
	token   uint64
	expires time.Time
}

// leaseTable tracks outstanding fill tokens. All methods are safe for
// concurrent use; count mirrors len(entries) lock-free for the hot-path
// gate.
type leaseTable struct {
	mu      sync.Mutex
	seq     uint64
	entries map[string]leaseEntry
	ttl     time.Duration
	max     int
	now     func() time.Time
	count   *atomic.Int64
}

func newLeaseTable(ttl time.Duration, max int, now func() time.Time, count *atomic.Int64) *leaseTable {
	return &leaseTable{
		entries: make(map[string]leaseEntry),
		ttl:     ttl,
		max:     max,
		now:     now,
		count:   count,
	}
}

// grant issues a fill token for key, or 0 when a fill is already
// outstanding (back off and re-get) or the table is full.
func (lt *leaseTable) grant(key []byte) uint64 {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	t := lt.now()
	if e, ok := lt.entries[string(key)]; ok && t.Before(e.expires) {
		return 0 // someone else is filling
	}
	if len(lt.entries) >= lt.max {
		lt.sweepLocked(t)
		if len(lt.entries) >= lt.max {
			return 0
		}
	}
	lt.seq++
	lt.entries[string(key)] = leaseEntry{token: lt.seq, expires: t.Add(lt.ttl)}
	lt.count.Store(int64(len(lt.entries)))
	return lt.seq
}

// take consumes the lease for key iff token matches and the lease has not
// expired. A matching-but-expired lease is removed and rejected: the fill
// right was forfeit, another client may already hold a fresh token.
func (lt *leaseTable) take(key []byte, token uint64) bool {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	e, ok := lt.entries[string(key)]
	if !ok || e.token != token {
		return false
	}
	delete(lt.entries, string(key))
	lt.count.Store(int64(len(lt.entries)))
	return lt.now().Before(e.expires)
}

// invalidate revokes any outstanding lease for key. Called from the write
// path (set/cas/delete/...) so a stale fill racing a fresh write loses.
func (lt *leaseTable) invalidate(key []byte) {
	lt.mu.Lock()
	if _, ok := lt.entries[string(key)]; ok {
		delete(lt.entries, string(key))
		lt.count.Store(int64(len(lt.entries)))
	}
	lt.mu.Unlock()
}

// sweepLocked drops expired leases. Caller holds lt.mu.
func (lt *leaseTable) sweepLocked(t time.Time) {
	for k, e := range lt.entries {
		if !t.Before(e.expires) {
			delete(lt.entries, k)
		}
	}
	lt.count.Store(int64(len(lt.entries)))
}

// gutterEntry is one short-lived value parked outside the main cache.
type gutterEntry struct {
	value   []byte
	flags   uint32
	expires time.Time
}

// gutterPool is the bounded FIFO side cache serving keys that change
// owner mid-handover. Values are copied in; eviction is insertion-order when either
// the item or byte cap is exceeded.
type gutterPool struct {
	mu       sync.Mutex
	items    map[string]gutterEntry
	order    []string // insertion order; an overwritten key keeps its slot
	bytes    int
	maxItems int
	maxBytes int
	ttl      time.Duration
	now      func() time.Time
	count    *atomic.Int64

	evictions atomic.Uint64
}

func newGutterPool(ttl time.Duration, maxItems, maxBytes int, now func() time.Time, count *atomic.Int64) *gutterPool {
	return &gutterPool{
		items:    make(map[string]gutterEntry),
		maxItems: maxItems,
		maxBytes: maxBytes,
		ttl:      ttl,
		now:      now,
		count:    count,
	}
}

// set parks a copy of value in the gutter, evicting oldest entries while
// over either cap.
func (g *gutterPool) set(key, value []byte, flags uint32) {
	g.mu.Lock()
	defer g.mu.Unlock()
	k := string(key)
	if old, ok := g.items[k]; ok {
		g.bytes -= len(old.value)
	} else {
		g.order = append(g.order, k)
	}
	v := make([]byte, len(value))
	copy(v, value)
	g.items[k] = gutterEntry{value: v, flags: flags, expires: g.now().Add(g.ttl)}
	g.bytes += len(v)
	for (len(g.items) > g.maxItems || g.bytes > g.maxBytes) && len(g.order) > 0 {
		victim := g.order[0]
		g.order = g.order[1:]
		if e, ok := g.items[victim]; ok {
			delete(g.items, victim)
			g.bytes -= len(e.value)
			g.evictions.Add(1)
		}
	}
	g.count.Store(int64(len(g.items)))
}

// gutterEvictions is a nil-safe stats accessor (bare test servers have no
// gutter pool).
func gutterEvictions(g *gutterPool) uint64 {
	if g == nil {
		return 0
	}
	return g.evictions.Load()
}

// ownershipVersion is the nil-safe table version for stats.
func ownershipVersion(t *hashring.Table) uint64 {
	if t == nil {
		return 0
	}
	return t.Version()
}

// get copies the gutter value for key into dst, reporting a miss for
// absent or expired entries. Expired entries are reclaimed in place.
func (g *gutterPool) get(key, dst []byte) ([]byte, uint32, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	e, ok := g.items[string(key)]
	if !ok {
		return dst, 0, false
	}
	if !g.now().Before(e.expires) {
		delete(g.items, string(key))
		g.bytes -= len(e.value)
		g.count.Store(int64(len(g.items)))
		return dst, 0, false
	}
	return append(dst[:0], e.value...), e.flags, true
}
