package cache

import "bytes"

// keyIndex is the per-shard pointer-free key table: an open-addressing
// hash table mapping the key's 64-bit hash to an itemRef, replacing the
// old map[string]*Item. Slots hold no pointers at all — a GC mark pass
// over the index is one contiguous-slab scan regardless of item count.
//
// Probing is linear from a Fibonacci-mixed start position. The shard
// router consumes the *low* bits of the key hash, so every key in a shard
// shares them; the multiplicative mix plus a top-bits start position
// decorrelates the probe sequence from the routing bits. Full hashes are
// stored per slot, so probes touch the arena only on a 64-bit hash match
// (then confirm by comparing the key bytes in the chunk).
//
// Deletes leave tombstones. Growth is incremental: when the load factor
// (live + tombstones) crosses 3/4, the current table is parked as `old`
// and a fresh table (doubled, or same-sized for a tombstone purge) takes
// over; every subsequent mutation migrates a few parked slots, so no
// single operation pays a full rehash. Lookups probe the new table first,
// then the parked one.
type keyIndex struct {
	slots []indexSlot // active table, power-of-two length
	shift uint        // 64 - log2(len(slots)): start = mixed-hash >> shift
	live  int         // occupied slots in the active table
	dead  int         // tombstones in the active table

	old    []indexSlot // parked table being drained, nil when none
	oldPos int         // next parked slot to migrate

	count int // live keys across both tables
}

type indexSlot struct {
	hash uint64
	ref  itemRef // nilRef = empty, tombRef = tombstone
}

const (
	// indexMinSize is the initial table size (slots).
	indexMinSize = 16
	// indexMigrateStep is how many parked slots each mutation drains.
	indexMigrateStep = 16
	// fibMix is 2^64 / golden ratio, the Fibonacci-hashing multiplier.
	fibMix = 0x9E3779B97F4A7C15
)

func indexShift(n int) uint {
	s := uint(0)
	for 1<<s < n {
		s++
	}
	return 64 - s
}

// lookup finds the ref stored under hash h whose page belongs to tenant
// tid and whose key equals key. Tenants hash the same key differently (the
// tenant ID is mixed into shardHashT), so the tenant compare only matters
// on a cross-tenant 64-bit hash collision — but it makes namespacing exact
// rather than probabilistic. The chunk resolved during the probe's key
// comparison is returned alongside, sparing hot-path callers a second
// ref→chunk resolution.
func (x *keyIndex) lookup(h uint64, tid uint16, key []byte, pool *pagePool) (itemRef, []byte, bool) {
	if ref, ch, ok := probe(x.slots, x.shift, h, tid, key, pool); ok {
		return ref, ch, true
	}
	if x.old != nil {
		if ref, ch, ok := probe(x.old, indexShift(len(x.old)), h, tid, key, pool); ok {
			return ref, ch, true
		}
	}
	return nilRef, nil, false
}

func probe(slots []indexSlot, shift uint, h uint64, tid uint16, key []byte, pool *pagePool) (itemRef, []byte, bool) {
	if len(slots) == 0 {
		return nilRef, nil, false
	}
	mask := len(slots) - 1
	for i, pos := 0, int((h*fibMix)>>shift); i <= mask; i, pos = i+1, (pos+1)&mask {
		s := slots[pos]
		if s.ref == nilRef {
			return nilRef, nil, false
		}
		if s.ref == tombRef || s.hash != h {
			continue
		}
		ch := pool.chunkAt(s.ref)
		if pool.owner[s.ref.page()] == tid && bytes.Equal(chKey(ch), key) {
			return s.ref, ch, true
		}
	}
	return nilRef, nil, false
}

// insert stores ref under h. The caller guarantees the key is absent (a
// prior lookup missed, or its old entry was deleted).
func (x *keyIndex) insert(h uint64, ref itemRef) {
	x.migrate(indexMigrateStep)
	if x.slots == nil {
		x.slots = make([]indexSlot, indexMinSize)
		x.shift = indexShift(indexMinSize)
	}
	if (x.live+x.dead+1)*4 > len(x.slots)*3 {
		x.grow()
	}
	x.place(h, ref)
	x.count++
}

// place writes (h, ref) into the first empty or tombstone slot of the
// active table. Growth keeps slots free, so the probe always terminates.
func (x *keyIndex) place(h uint64, ref itemRef) {
	if tookTomb := placeIn(x.slots, x.shift, h, ref); tookTomb {
		x.dead--
	}
	x.live++
}

func placeIn(slots []indexSlot, shift uint, h uint64, ref itemRef) (tookTomb bool) {
	mask := len(slots) - 1
	pos := int((h * fibMix) >> shift)
	for {
		s := &slots[pos]
		if s.ref == nilRef || s.ref == tombRef {
			tookTomb = s.ref == tombRef
			s.hash, s.ref = h, ref
			return tookTomb
		}
		pos = (pos + 1) & mask
	}
}

// delete removes the entry holding exactly ref under h (ref equality is
// unambiguous, so no key compare is needed). It reports whether an entry
// was removed.
func (x *keyIndex) delete(h uint64, ref itemRef) bool {
	x.migrate(indexMigrateStep)
	if x.deleteIn(x.slots, x.shift, h, ref, true) {
		x.count--
		return true
	}
	if x.old != nil && x.deleteIn(x.old, indexShift(len(x.old)), h, ref, false) {
		x.count--
		return true
	}
	return false
}

func (x *keyIndex) deleteIn(slots []indexSlot, shift uint, h uint64, ref itemRef, active bool) bool {
	if len(slots) == 0 {
		return false
	}
	mask := len(slots) - 1
	for i, pos := 0, int((h*fibMix)>>shift); i <= mask; i, pos = i+1, (pos+1)&mask {
		s := &slots[pos]
		if s.ref == nilRef {
			return false
		}
		if s.ref == ref && s.hash == h {
			s.ref = tombRef
			if active {
				x.live--
				x.dead++
			}
			return true
		}
	}
	return false
}

// grow installs a fresh table sized for every live key at ≤ 1/2 load —
// which shrinks a tombstone-bloated table and doubles a genuinely full
// one — and parks the current table for incremental draining. A parked
// table normally drains long before growth re-triggers (each mutation
// moves indexMigrateStep slots); if an adversarial mix re-triggers growth
// while one is still parked, both tables are folded into the new one in a
// single pass rather than parking two.
func (x *keyIndex) grow() {
	newCap := indexMinSize
	for newCap < (x.count+1)*2 {
		newCap *= 2
	}
	if x.old != nil {
		fresh := make([]indexSlot, newCap)
		shift := indexShift(newCap)
		live := 0
		for _, tbl := range [2][]indexSlot{x.old, x.slots} {
			for _, s := range tbl {
				if s.ref != nilRef && s.ref != tombRef {
					placeIn(fresh, shift, s.hash, s.ref)
					live++
				}
			}
		}
		x.old = nil
		x.slots, x.shift = fresh, shift
		x.live, x.dead = live, 0
		return
	}
	x.old = x.slots
	x.oldPos = 0
	x.slots = make([]indexSlot, newCap)
	x.shift = indexShift(newCap)
	x.live, x.dead = 0, 0
}

// migrate drains up to n parked slots into the active table. Moved slots
// are tombstoned in the parked table — not cleared, which would break its
// probe chains — so a key is findable in exactly one table at all times.
func (x *keyIndex) migrate(n int) {
	if x.old == nil {
		return
	}
	for ; n > 0 && x.oldPos < len(x.old); n-- {
		s := &x.old[x.oldPos]
		x.oldPos++
		if s.ref != nilRef && s.ref != tombRef {
			if (x.live+x.dead+1)*4 > len(x.slots)*3 {
				// Migration alone can overfill the active table (it skips
				// insert's load check); fold everything instead of placing
				// into a table with no free slots.
				x.grow()
				return
			}
			x.place(s.hash, s.ref)
			s.ref = tombRef
		}
	}
	if x.oldPos >= len(x.old) {
		x.old = nil
	}
}

// reset drops every entry, keeping no memory (FlushAll).
func (x *keyIndex) reset() {
	*x = keyIndex{}
}
