package cache

import "time"

// Batched multi-key operations. Memcached's ASCII protocol allows
// multi-key `get`/`gets` requests; on the striped engine a naive per-key
// loop would take one shard lock per key. GetMulti and SetBatch group keys
// by shard first and take each shard's lock exactly once, so an N-key
// request costs at most ShardCount() lock acquisitions. The server's
// multi-key read path and the bench harness preloads run on these.

// MultiValue is one hit of a GetMulti: the value plus the item's client
// flags and CAS token (so one call serves both `get` and `gets`).
type MultiValue struct {
	// Value is a copy of the stored bytes.
	Value []byte
	// Flags are the opaque client flags stored with the item.
	Flags uint32
	// CAS is the item's compare-and-swap token.
	CAS uint64
}

// GetMulti looks up every key, refreshing recency and counting hits and
// misses exactly like per-key Get, and returns the hits keyed by name.
// Missing or expired keys are simply absent from the result. The wire hot
// path's allocation-free, in-order variant is GetMultiInto.
func (c *Cache) GetMulti(keys []string) map[string]MultiValue {
	if len(keys) == 0 {
		return nil
	}
	out := make(map[string]MultiValue, len(keys))
	c.eachShardGroup(keys, func(sh *shard, i int, tid uint16, h uint64, nowNano int64) {
		key := keys[i]
		sh.sampleAccess(tid, h)
		ref, ch, ok := sh.lookupLocked(h, tid, sbytes(key), nowNano)
		if !ok {
			sh.misses++
			sh.tstat(tid).misses++
			return
		}
		sh.hits++
		sh.tstat(tid).hits++
		setChAccess(ch, nowNano)
		sh.slabFor(ref).list.moveToFront(&c.pool, ref)
		v := chValue(ch)
		out[key] = MultiValue{
			Value: append(make([]byte, 0, len(v)), v...),
			Flags: chFlags(ch),
			CAS:   chCAS(ch),
		}
	})
	return out
}

// eachShardGroup visits keys grouped by lock stripe, taking each touched
// shard's lock exactly once and calling fn with each key's index and
// routing hash under its shard's lock (in slice order within a shard), and
// the one clock read every key of the call is stamped with. The
// O(keys × distinct-shards) rescan is cheap at protocol batch sizes.
func (c *Cache) eachShardGroup(keys []string, fn func(sh *shard, i int, tid uint16, h uint64, nowNano int64)) {
	hs := make([]uint64, len(keys))
	tids := make([]uint16, len(keys))
	done := make([]bool, len(keys))
	for i, key := range keys {
		tids[i] = c.resolveTenant(sbytes(key))
		hs[i] = shardHashT(tids[i], sbytes(key))
	}
	nowNano := c.nowNano()
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
			fn(sh, j, tids[j], hs[j], nowNano)
		}
		sh.mu.Unlock()
	}
}

// SetItem is one entry of a SetBatch.
type SetItem struct {
	// Key and Value carry the pair.
	Key   string
	Value []byte
	// Flags are opaque client flags stored with the item.
	Flags uint32
	// ExpiresAt is the absolute expiry; zero means the item never expires.
	ExpiresAt time.Time
}

// SetBatch stores every item, grouping writes by shard so each shard lock
// is taken once for the whole batch. Duplicate keys apply in slice order,
// like sequential Sets. Per-item failures (empty key, oversized value, slab
// exhaustion) do not abort the batch: the remaining items are still stored,
// the count of stored items is returned, and the first error encountered is
// reported.
func (c *Cache) SetBatch(items []SetItem) (int, error) {
	if len(items) == 0 {
		return 0, nil
	}
	keys := make([]string, len(items))
	for i := range items {
		keys[i] = items[i].Key
	}
	stored := 0
	var firstErr error
	c.eachShardGroup(keys, func(sh *shard, i int, tid uint16, h uint64, nowNano int64) {
		item := &items[i]
		if item.Key == "" {
			if firstErr == nil {
				firstErr = ErrEmptyKey
			}
			return
		}
		if err := sh.setLocked(h, tid, sbytes(item.Key), item.Value, item.Flags, toNano(item.ExpiresAt), nowNano); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			return
		}
		stored++
	})
	return stored, firstErr
}
