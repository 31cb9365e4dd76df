package cache

import "time"

// The wire hot path: byte-slice-keyed variants of Get/Set, and the
// multi-key get, that perform zero steady-state heap allocations. Keys arrive from the protocol
// parser as slices into its read buffer; lookups probe the pointer-free
// index and compare key bytes directly in the arena, and values are
// copied into caller-provided scratch, or by a GetFunc callback straight
// to where they are going. The convenience string-keyed API (Get/Set)
// stays for everything that is not serving sockets.

// GetInto looks up key, refreshing recency, and appends a copy of the value
// to dst. It returns the extended slice together with the item's client
// flags and CAS token; hit is false on miss (dst is returned unchanged).
// It never allocates when dst has capacity for the value.
func (c *Cache) GetInto(key []byte, dst []byte) (out []byte, flags uint32, casToken uint64, hit bool) {
	c.GetFunc([][]byte{key}, func(_ int, f uint32, cas uint64, value []byte) bool {
		dst, flags, casToken, hit = append(dst, value...), f, cas, true
		return true
	})
	return dst, flags, casToken, hit
}

// GetFunc looks up keys in order, refreshing recency and counting hits and
// misses like GetInto, and calls fn for each hit with the key's index, the
// item's client flags and CAS token, and its value. Every key of the call
// is stamped with one clock read. fn runs under the key's shard lock, one
// lock at a time, and value aliases the arena, valid only until fn
// returns: fn must copy what it keeps, must not block, and must not call
// into the cache. This lets a caller copy each value straight to where it
// is going — the server renders it into the connection's reply buffer —
// without an intermediate copy. fn returns false to stop the walk after
// its key; GetFunc returns how many keys it consumed. It allocates
// nothing itself.
func (c *Cache) GetFunc(keys [][]byte, fn func(i int, flags uint32, casToken uint64, value []byte) bool) int {
	nowNano := c.nanos()
	for i, key := range keys {
		tid, h, sh := c.route(key)
		sh.mu.Lock()
		sh.sampleAccess(tid, h)
		ref, ch, ok := sh.lookupLocked(h, tid, key, nowNano)
		if !ok {
			sh.misses++
			sh.tstat(tid).misses++
			sh.mu.Unlock()
			continue
		}
		sh.hits++
		sh.tstat(tid).hits++
		setChAccess(ch, nowNano)
		sh.slabFor(ref).list.moveToFront(&c.pool, ref)
		more := fn(i, chFlags(ch), chCAS(ch), chValue(ch))
		sh.mu.Unlock()
		if !more {
			return i + 1
		}
	}
	return len(keys)
}

// SetBytes stores a copy of value under a byte-slice key with client flags
// and an absolute expiry (zero = never). Overwriting an existing item of
// the same slab class rewrites its chunk in place and allocates nothing;
// a brand-new key only takes a free arena chunk — no per-item object is
// ever created, so even first stores are allocation-free once the slab's
// pages and the index have warmed up.
func (c *Cache) SetBytes(key, value []byte, flags uint32, expiresAt time.Time) error {
	if len(key) == 0 {
		return ErrEmptyKey
	}
	tid, h, sh := c.route(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.setLocked(h, tid, key, value, flags, toNano(expiresAt), c.nanos())
}

// MultiItem is one in-order result of a GetMultiInto. Values live in the
// arena the call returns; resolve them with ValueIn.
type MultiItem struct {
	// Hit reports whether the key was resident; the other fields are only
	// meaningful when it is true.
	Hit bool
	// Flags are the opaque client flags stored with the item.
	Flags uint32
	// CAS is the item's compare-and-swap token.
	CAS uint64

	off, n int
}

// ValueIn resolves the item's value inside the arena returned by the same
// GetMultiInto call.
func (m MultiItem) ValueIn(arena []byte) []byte { return arena[m.off : m.off+m.n] }

// GetMultiInto is the batched multi-get: one result per requested key, in
// request order, appended into the caller-provided dst and value arena
// (both are reset and returned, possibly grown). It is GetFunc copying
// each hit's value into the arena: hits and misses count and promote
// exactly like per-key Get, every key of the call is stamped with one
// clock read, and nothing allocates once dst and arena have warmed up to
// the workload's batch shape. The server does not use it; it renders
// each hit straight into its reply buffer through GetFunc.
func (c *Cache) GetMultiInto(keys [][]byte, dst []MultiItem, arena []byte) ([]MultiItem, []byte) {
	if cap(dst) < len(keys) {
		dst = make([]MultiItem, len(keys))
	}
	dst, arena = dst[:len(keys)], arena[:0]
	clear(dst)
	c.GetFunc(keys, func(i int, flags uint32, casToken uint64, value []byte) bool {
		dst[i] = MultiItem{Hit: true, Flags: flags, CAS: casToken, off: len(arena), n: len(value)}
		arena = append(arena, value...)
		return true
	})
	return dst, arena
}
