package cache

import (
	"errors"
	"strconv"
	"time"
)

// This file implements the rest of memcached's storage command set on the
// arena slab core: conditional stores (add/replace/cas), value edits
// (append/prepend/incr/decr), and touch. Like SetBytes and GetInto, each
// command takes its key as bytes and carries the client's flags, so the
// server hands the parser's key straight through. Every command is
// single-key and runs as one rmw: route, one shard lock, one clock read,
// the lookup, the command's condition, and the store.
var (
	// ErrExists is returned by CompareAndSwap when the item changed since
	// the token was issued (memcached's EXISTS).
	ErrExists = errors.New("cache: item changed since gets")
	// ErrNotStored is returned by Add, Replace, Append and Prepend when
	// their condition fails.
	ErrNotStored = errors.New("cache: condition failed, not stored")
	// ErrNotNumber is returned by Incr/Decr on non-numeric values.
	ErrNotNumber = errors.New("cache: value is not a number")
)

// locked is one key's lookup under its shard lock, as rmw hands it to a
// command: ch is the live item's chunk, nil on a miss.
type locked struct {
	sh  *shard
	h   uint64
	tid uint16
	key []byte
	ref itemRef
	ch  []byte
	now int64
}

// set stores value under the key with a fresh CAS token, counting a set.
// value must not alias ch.
func (l locked) set(value []byte, flags uint32, expire int64) error {
	return l.sh.setLocked(l.h, l.tid, l.key, value, flags, expire, l.now)
}

// rmw is the one read-modify-write of a single key: it routes the key,
// takes its shard lock, reads the clock once, looks the key up (lazily
// expiring a dead item) and runs fn under the lock. fn must not call into
// the cache.
func (c *Cache) rmw(key []byte, fn func(l locked) error) error {
	if len(key) == 0 {
		return ErrEmptyKey
	}
	tid, h, sh := c.route(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	l := locked{sh: sh, h: h, tid: tid, key: key, now: c.nowNano()}
	l.ref, l.ch, _ = sh.lookupLocked(h, tid, key, l.now)
	return fn(l)
}

// Add stores only if the key is absent (memcached's add).
func (c *Cache) Add(key, value []byte, flags uint32, expiresAt time.Time) error {
	return c.rmw(key, func(l locked) error {
		if l.ch != nil {
			return ErrNotStored
		}
		return l.set(value, flags, toNano(expiresAt))
	})
}

// Replace stores only if the key is present (memcached's replace).
func (c *Cache) Replace(key, value []byte, flags uint32, expiresAt time.Time) error {
	return c.rmw(key, func(l locked) error {
		if l.ch == nil {
			return ErrNotStored
		}
		return l.set(value, flags, toNano(expiresAt))
	})
}

// CompareAndSwap stores only if the item's CAS token still matches
// (memcached's cas).
func (c *Cache) CompareAndSwap(key, value []byte, flags uint32, expiresAt time.Time, casToken uint64) error {
	return c.rmw(key, func(l locked) error {
		switch {
		case l.ch == nil:
			return ErrNotFound
		case chCAS(l.ch) != casToken:
			return ErrExists
		}
		return l.set(value, flags, toNano(expiresAt))
	})
}

// Append concatenates data after the existing value (memcached's append).
// The expiry and flags of the existing item are preserved.
func (c *Cache) Append(key, data []byte) error { return c.edit(key, nil, data) }

// Prepend concatenates data before the existing value.
func (c *Cache) Prepend(key, data []byte) error { return c.edit(key, data, nil) }

// edit rewrites an existing item's value to before+value+after, preserving
// expiry and flags. The new value is built in a fresh slice: the old one
// is a view into the item's live chunk, which the store rewrites.
func (c *Cache) edit(key, before, after []byte) error {
	return c.rmw(key, func(l locked) error {
		if l.ch == nil {
			return ErrNotStored
		}
		old := chValue(l.ch)
		value := make([]byte, 0, len(before)+len(old)+len(after))
		value = append(append(append(value, before...), old...), after...)
		return l.set(value, chFlags(l.ch), chExpire(l.ch))
	})
}

// Incr adds delta to a decimal-uint64 value (memcached's incr), returning
// the new value. Overflow wraps, as in memcached.
func (c *Cache) Incr(key []byte, delta uint64) (uint64, error) { return c.arith(key, delta, false) }

// Decr subtracts delta, clamping at zero (memcached's decr semantics).
func (c *Cache) Decr(key []byte, delta uint64) (uint64, error) { return c.arith(key, delta, true) }

func (c *Cache) arith(key []byte, delta uint64, decr bool) (uint64, error) {
	var out uint64
	err := c.rmw(key, func(l locked) error {
		if l.ch == nil {
			return ErrNotFound
		}
		v, err := strconv.ParseUint(string(chValue(l.ch)), 10, 64)
		if err != nil {
			return ErrNotNumber
		}
		out = v + delta
		if decr {
			out = v - min(v, delta)
		}
		var digits [20]byte
		return l.set(strconv.AppendUint(digits[:0], out, 10), chFlags(l.ch), chExpire(l.ch))
	})
	return out, err
}

// Touch updates an item's expiry and recency (memcached's touch), keeping
// its value, flags and CAS token. An expiry needs 8 bytes of the chunk
// (see arena.go), so an item whose class changes with it — a TTL added
// where the chunk has less than 8 bytes of slack, or dropped where the
// item then fits a smaller class — moves to that class. A touch that
// cannot keep the item under its new expiry (no class holds it, or the
// move gets no chunk) drops it and returns the error: a miss reads through
// to the backing store, where a copy under the old expiry would outlive
// the deadline its home set, or never expire.
func (c *Cache) Touch(key []byte, expiresAt time.Time) error {
	return c.rmw(key, func(l locked) error {
		if l.ch == nil {
			return ErrNotFound
		}
		sh, ch, expire := l.sh, l.ch, toNano(expiresAt)
		classID, err := c.classFor(key, chVLen(ch), expire)
		if err != nil {
			sh.removeLocked(l.ref, ch)
			return err
		}
		if _, cur := c.pool.setOf(l.ref); cur != classID {
			// storeLocked drops the old copy before it allocates.
			value := append([]byte(nil), chValue(ch)...)
			return sh.storeLocked(l.h, l.tid, key, value, chFlags(ch), chCAS(ch), expire, l.now)
		}
		setChExpire(ch, expire)
		setChAccess(ch, l.now)
		sh.slabAt(l.tid, classID).list.moveToFront(&c.pool, l.ref)
		return nil
	})
}
