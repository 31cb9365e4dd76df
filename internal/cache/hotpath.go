package cache

import "time"

// The wire hot path: byte-slice-keyed variants of Get/Set, and the
// multi-key get, that perform zero steady-state heap allocations. Keys arrive from the protocol
// parser as slices into its read buffer; lookups probe the pointer-free
// index and compare key bytes directly in the arena, and results are
// appended into caller-provided scratch that the server pools per
// connection. The convenience string-keyed API (Get/Set) stays for
// everything that is not serving sockets.

// GetInto looks up key, refreshing recency, and appends a copy of the value
// to dst. It returns the extended slice together with the item's client
// flags and CAS token; hit is false on miss (dst is returned unchanged).
// It never allocates when dst has capacity for the value.
func (c *Cache) GetInto(key []byte, dst []byte) (out []byte, flags uint32, casToken uint64, hit bool) {
	tid, h, sh := c.route(key)
	sh.mu.Lock()
	nowNano := c.nanos()
	sh.sampleAccess(tid, h)
	ref, ch, ok := sh.lookupLocked(h, tid, key, nowNano)
	if !ok {
		sh.misses++
		sh.tstat(tid).misses++
		sh.mu.Unlock()
		return dst, 0, 0, false
	}
	sh.hits++
	sh.tstat(tid).hits++
	setChAccess(ch, nowNano)
	sh.slabFor(ref).list.moveToFront(&c.pool, ref)
	dst = append(dst, chValue(ch)...)
	flags, casToken = chFlags(ch), chCAS(ch)
	sh.mu.Unlock()
	return dst, flags, casToken, true
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

// getMultiScratchKeys bounds the stack-resident hash scratch; larger
// batches fall back to one heap allocation for the hash array.
const getMultiScratchKeys = 64

// GetMultiInto is the hot-path multi-get: one result per requested key, in
// request order, appended into the caller-provided dst and value arena
// (both are reset and returned, possibly grown). Hits and misses count and
// promote exactly like per-key Get, and every key of the call is stamped
// with one clock read. Locking is grouped by shard — each touched
// stripe's lock is taken once per call — and nothing allocates once
// dst and arena have warmed up to the workload's batch shape (batches over
// 64 keys pay one hash-scratch allocation).
func (c *Cache) GetMultiInto(keys [][]byte, dst []MultiItem, arena []byte) ([]MultiItem, []byte) {
	dst, arena = dst[:0], arena[:0]
	if len(keys) == 0 {
		return dst, arena
	}
	if cap(dst) < len(keys) {
		dst = make([]MultiItem, len(keys))
	} else {
		dst = dst[:len(keys)]
	}
	var hashArr [getMultiScratchKeys]uint64
	var tidArr [getMultiScratchKeys]uint16
	var doneArr [getMultiScratchKeys]bool
	hs, tids, done := hashArr[:], tidArr[:], doneArr[:]
	if len(keys) > getMultiScratchKeys {
		hs = make([]uint64, len(keys))
		tids = make([]uint16, len(keys))
		done = make([]bool, len(keys))
	} else {
		hs, tids, done = hs[:len(keys)], tids[:len(keys)], done[:len(keys)]
	}
	for i, key := range keys {
		tids[i] = c.resolveTenant(key)
		hs[i] = shardHashT(tids[i], key)
	}
	// One clock read per request: every key of it shares one stamp.
	nowNano := c.nanos()
	for i := range keys {
		if done[i] {
			continue // already served under an earlier shard's lock
		}
		si := hs[i] & c.mask
		sh := c.shards[si]
		sh.mu.Lock()
		for j := i; j < len(keys); j++ {
			if done[j] || hs[j]&c.mask != si {
				continue
			}
			done[j] = true
			sh.sampleAccess(tids[j], hs[j])
			ref, ch, ok := sh.lookupLocked(hs[j], tids[j], keys[j], nowNano)
			if !ok {
				sh.misses++
				sh.tstat(tids[j]).misses++
				dst[j] = MultiItem{}
				continue
			}
			sh.hits++
			sh.tstat(tids[j]).hits++
			setChAccess(ch, nowNano)
			sh.slabFor(ref).list.moveToFront(&c.pool, ref)
			v := chValue(ch)
			off := len(arena)
			arena = append(arena, v...)
			dst[j] = MultiItem{Hit: true, Flags: chFlags(ch), CAS: chCAS(ch), off: off, n: len(v)}
		}
		sh.mu.Unlock()
	}
	return dst, arena
}
