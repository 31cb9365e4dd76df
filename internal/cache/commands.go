package cache

import (
	"errors"
	"fmt"
	"strconv"
	"time"
)

// This file implements the rest of memcached's storage command set on the
// arena slab core: conditional stores (add/replace/cas), value edits
// (append/prepend/incr/decr), and TTL expiration. ElMem itself only needs
// get/set plus the migration extensions, but the testbed is meant to be a
// drop-in Memcached stand-in, and expiration interacts with migration
// (expired items must not be offered or shipped). Every command here is
// single-key, so each takes exactly one shard lock.
var (
	// ErrExists is returned by CompareAndSwap when the item changed since
	// the token was issued (memcached's EXISTS).
	ErrExists = errors.New("cache: item changed since gets")
	// ErrNotStored is returned by Add/Replace when their condition fails.
	ErrNotStored = errors.New("cache: condition failed, not stored")
	// ErrNotNumber is returned by Incr/Decr on non-numeric values.
	ErrNotNumber = errors.New("cache: value is not a number")
)

// SetExpiring stores the value with an absolute expiry (zero = never) and
// zero flags.
func (c *Cache) SetExpiring(key string, value []byte, expiresAt time.Time) error {
	return c.SetExpiringFlags(key, value, 0, expiresAt)
}

// SetExpiringFlags stores the value with client flags and an absolute
// expiry (zero = never). This is the full memcached "set".
func (c *Cache) SetExpiringFlags(key string, value []byte, flags uint32, expiresAt time.Time) error {
	if key == "" {
		return ErrEmptyKey
	}
	kb := sbytes(key)
	tid, h, sh := c.route(kb)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	ch, err := sh.setLocked(h, tid, kb, value, flags, c.nowNano())
	if err != nil {
		return err
	}
	setChExpire(ch, toNano(expiresAt))
	return nil
}

// GetWithCAS returns a copy of the value, the item's client flags, and its
// CAS token (memcached's gets), refreshing recency.
func (c *Cache) GetWithCAS(key string) (value []byte, flags uint32, casToken uint64, err error) {
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
		return nil, 0, 0, fmt.Errorf("gets %q: %w", key, ErrNotFound)
	}
	sh.hits++
	sh.tstat(tid).hits++
	setChAccess(ch, nowNano)
	sh.slabFor(ch).list.moveToFront(&c.pool, ref)
	v := chValue(ch)
	return append(make([]byte, 0, len(v)), v...), chFlags(ch), chCAS(ch), nil
}

// Add stores only if the key is absent (memcached's add).
func (c *Cache) Add(key string, value []byte, expiresAt time.Time) error {
	return c.AddFlags(key, value, 0, expiresAt)
}

// AddFlags is Add carrying client flags.
func (c *Cache) AddFlags(key string, value []byte, flags uint32, expiresAt time.Time) error {
	if key == "" {
		return ErrEmptyKey
	}
	kb := sbytes(key)
	tid, h, sh := c.route(kb)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	nowNano := c.nowNano()
	if _, _, ok := sh.lookupLocked(h, tid, kb, nowNano); ok {
		return fmt.Errorf("add %q: %w", key, ErrNotStored)
	}
	ch, err := sh.setLocked(h, tid, kb, value, flags, nowNano)
	if err != nil {
		return err
	}
	setChExpire(ch, toNano(expiresAt))
	return nil
}

// Replace stores only if the key is present (memcached's replace).
func (c *Cache) Replace(key string, value []byte, expiresAt time.Time) error {
	return c.ReplaceFlags(key, value, 0, expiresAt)
}

// ReplaceFlags is Replace carrying client flags.
func (c *Cache) ReplaceFlags(key string, value []byte, flags uint32, expiresAt time.Time) error {
	if key == "" {
		return ErrEmptyKey
	}
	kb := sbytes(key)
	tid, h, sh := c.route(kb)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	nowNano := c.nowNano()
	if _, _, ok := sh.lookupLocked(h, tid, kb, nowNano); !ok {
		return fmt.Errorf("replace %q: %w", key, ErrNotStored)
	}
	ch, err := sh.setLocked(h, tid, kb, value, flags, nowNano)
	if err != nil {
		return err
	}
	setChExpire(ch, toNano(expiresAt))
	return nil
}

// CompareAndSwap stores only if the item's CAS token still matches
// (memcached's cas).
func (c *Cache) CompareAndSwap(key string, value []byte, expiresAt time.Time, casToken uint64) error {
	return c.CompareAndSwapFlags(key, value, 0, expiresAt, casToken)
}

// CompareAndSwapFlags is CompareAndSwap carrying client flags.
func (c *Cache) CompareAndSwapFlags(key string, value []byte, flags uint32, expiresAt time.Time, casToken uint64) error {
	if key == "" {
		return ErrEmptyKey
	}
	kb := sbytes(key)
	tid, h, sh := c.route(kb)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	nowNano := c.nowNano()
	_, ch, ok := sh.lookupLocked(h, tid, kb, nowNano)
	if !ok {
		return fmt.Errorf("cas %q: %w", key, ErrNotFound)
	}
	if chCAS(ch) != casToken {
		return fmt.Errorf("cas %q: %w", key, ErrExists)
	}
	ch, err := sh.setLocked(h, tid, kb, value, flags, nowNano)
	if err != nil {
		return err
	}
	setChExpire(ch, toNano(expiresAt))
	return nil
}

// Append concatenates data after the existing value (memcached's append).
// The expiry and flags of the existing item are preserved.
func (c *Cache) Append(key string, data []byte) error {
	return c.edit(key, func(old []byte) []byte {
		out := make([]byte, 0, len(old)+len(data))
		out = append(out, old...)
		return append(out, data...)
	})
}

// Prepend concatenates data before the existing value.
func (c *Cache) Prepend(key string, data []byte) error {
	return c.edit(key, func(old []byte) []byte {
		out := make([]byte, 0, len(old)+len(data))
		out = append(out, data...)
		return append(out, old...)
	})
}

// edit rewrites an existing item's value in place, preserving expiry and
// flags. fn must return a freshly allocated slice: old is a view into the
// item's live chunk, and setLocked rewrites that chunk, so returning a
// view of old would overlap the copy.
func (c *Cache) edit(key string, fn func(old []byte) []byte) error {
	if key == "" {
		return ErrEmptyKey
	}
	kb := sbytes(key)
	tid, h, sh := c.route(kb)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	nowNano := c.nowNano()
	_, ch, ok := sh.lookupLocked(h, tid, kb, nowNano)
	if !ok {
		return fmt.Errorf("edit %q: %w", key, ErrNotStored)
	}
	expire, flags := chExpire(ch), chFlags(ch)
	ch, err := sh.setLocked(h, tid, kb, fn(chValue(ch)), flags, nowNano)
	if err != nil {
		return err
	}
	setChExpire(ch, expire)
	return nil
}

// Incr adds delta to a decimal-uint64 value (memcached's incr), returning
// the new value. Overflow wraps, as in memcached.
func (c *Cache) Incr(key string, delta uint64) (uint64, error) {
	return c.arith(key, func(v uint64) uint64 { return v + delta })
}

// Decr subtracts delta, clamping at zero (memcached's decr semantics).
func (c *Cache) Decr(key string, delta uint64) (uint64, error) {
	return c.arith(key, func(v uint64) uint64 {
		if delta > v {
			return 0
		}
		return v - delta
	})
}

func (c *Cache) arith(key string, fn func(uint64) uint64) (uint64, error) {
	if key == "" {
		return 0, ErrEmptyKey
	}
	kb := sbytes(key)
	tid, h, sh := c.route(kb)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	nowNano := c.nowNano()
	_, ch, ok := sh.lookupLocked(h, tid, kb, nowNano)
	if !ok {
		return 0, fmt.Errorf("arith %q: %w", key, ErrNotFound)
	}
	v, err := strconv.ParseUint(string(chValue(ch)), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("arith %q: %w", key, ErrNotNumber)
	}
	out := fn(v)
	expire, flags := chExpire(ch), chFlags(ch)
	ch, err = sh.setLocked(h, tid, kb, []byte(strconv.FormatUint(out, 10)), flags, nowNano)
	if err != nil {
		return 0, err
	}
	setChExpire(ch, expire)
	return out, nil
}

// TouchExpiry updates an item's expiry and recency (memcached's touch).
func (c *Cache) TouchExpiry(key string, expiresAt time.Time) error {
	kb := sbytes(key)
	tid, h, sh := c.route(kb)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	nowNano := c.nowNano()
	ref, ch, ok := sh.lookupLocked(h, tid, kb, nowNano)
	if !ok {
		return fmt.Errorf("touch %q: %w", key, ErrNotFound)
	}
	setChExpire(ch, toNano(expiresAt))
	setChAccess(ch, nowNano)
	sh.slabFor(ch).list.moveToFront(&c.pool, ref)
	return nil
}

// Expirations reports items reclaimed by expiry (lazy or crawler).
func (c *Cache) Expirations() uint64 {
	var n uint64
	for _, sh := range c.shards {
		sh.mu.Lock()
		n += sh.expirations
		sh.mu.Unlock()
	}
	return n
}
