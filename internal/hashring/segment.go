// The ownership table: the serve-through scaling handover is two
// immutable rings and a version. A settled table routes on one ring; a
// handover pairs the outgoing ring with the incoming one until it either
// settles onto the incoming ring or rolls back to the outgoing one:
//
//	settled(old) ──BeginHandover──▶ handover(old, next) ──Settle──▶ settled(next)
//	      ▲                                │
//	      └─────────────Rollback───────────┘
//
// Each transition is one version bump, and nothing happens in between.
// Routing is decided per key: a key whose owner differs between the two
// rings is in flight (reads go to the incoming owner first and fall back
// to the outgoing one, writes go to both); every other key routes exactly
// as when settled, because both rings agree on it. Ring.Get on the pre- or
// post-action ring stays the placement authority, so agents, oracles and
// tests keep their placement logic.
package hashring

import (
	"fmt"
	"slices"
	"sort"
)

// segmentBits divides the circle into 1024 equal arcs, the unit in which
// BeginHandover reports how much of the circle a handover remaps.
const segmentBits = 10

// Table is an immutable versioned ownership map: the outgoing ring and the
// incoming one, the same ring when settled. Transitions (BeginHandover,
// Settle, Rollback) return a new Table with a strictly larger version;
// consumers install a table only when its version exceeds what they hold,
// which makes announcement reordering harmless.
type Table struct {
	version uint64
	old     *Ring // outgoing ownership (authoritative until Settle)
	next    *Ring // incoming ownership (== old when settled)
}

// NewTable builds a settled table at version 1 over members.
func NewTable(members []string) (*Table, error) {
	ring, err := New(members)
	if err != nil {
		return nil, err
	}
	return &Table{version: 1, old: ring, next: ring}, nil
}

// Version returns the table's monotone version.
func (t *Table) Version() uint64 { return t.version }

// Settled reports whether no handover is in progress.
func (t *Table) Settled() bool { return t.old == t.next }

// Members returns the member set the table routes over: the single ring's
// members when settled, the union of both rings' members mid-handover.
func (t *Table) Members() []string {
	if t.Settled() {
		return t.old.Members()
	}
	out := append(t.old.Members(), t.next.members...)
	sort.Strings(out)
	return slices.Compact(out)
}

// InFlightHash reports whether the key hash changes owner in the
// handover in progress. It does no allocation — servers call it with
// KeyHashBytes on the request hot path.
func (t *Table) InFlightHash(h uint64) bool {
	if t.Settled() {
		return false
	}
	a, _ := t.old.GetHash(h)
	b, _ := t.next.GetHash(h)
	return a != b
}

// Owner returns the key's authoritative owner: the outgoing owner until
// the table settles onto the incoming ring.
func (t *Table) Owner(key string) (string, error) {
	return t.old.Get(key)
}

// ReadPlan returns where a read should go: primary first, then fallback
// on miss. Mid-handover, a key whose owner changes reads from its incoming
// owner and falls back to its outgoing one; every other key has no
// fallback — the common case, since a handover remaps only ~1/k of keys.
func (t *Table) ReadPlan(key string) (primary, fallback string, err error) {
	h := KeyHash(key)
	old, err := t.old.GetHash(h)
	if err != nil || t.Settled() {
		return old, "", err
	}
	next, err := t.next.GetHash(h)
	if err != nil {
		return "", "", err
	}
	if next == old {
		return old, "", nil
	}
	return next, old, nil
}

// WritePlan returns where a write must land. Mid-handover, a write to a
// key whose owner changes is dual-applied — primary is the incoming owner
// (so migrated MRU state is not stale at handover), second the outgoing
// one (still authoritative for fallback reads, and the owner again should
// the handover roll back). Otherwise second is empty.
func (t *Table) WritePlan(key string) (primary, second string, err error) {
	return t.ReadPlan(key)
}

// AcceptsImport reports whether node may import key under this table:
// the outgoing owner always may, and mid-handover the incoming owner may
// too (that is what migration is filling). A settled table accepts
// imports only on the key's owner, so stale streams aimed at a node that
// no longer owns the key are dropped.
func (t *Table) AcceptsImport(node, key string) bool {
	h := KeyHash(key)
	if o, err := t.old.GetHash(h); err == nil && o == node {
		return true
	}
	if t.Settled() {
		return false
	}
	o, err := t.next.GetHash(h)
	return err == nil && o == node
}

// BeginHandover starts a handover toward newMembers. It returns the new
// table and how many of the circle's 1024 equal arcs hold a key that
// changes owner (a reporting measure of the remapped share). Only a
// settled table may begin a handover.
func (t *Table) BeginHandover(newMembers []string) (*Table, int, error) {
	if !t.Settled() {
		return nil, 0, fmt.Errorf("hashring: handover already in progress (version %d)", t.version)
	}
	next, err := New(newMembers)
	if err != nil {
		return nil, 0, err
	}
	moved := len(diffSegments(t.old, next, segmentBits))
	return &Table{version: t.version + 1, old: t.old, next: next}, moved, nil
}

// Rollback abandons an in-progress handover: every key returns to its
// owner on the old ring. Used when a scaling phase fails mid-flight.
func (t *Table) Rollback() *Table {
	return &Table{version: t.version + 1, old: t.old, next: t.old}
}

// Settle completes a handover: the next ring becomes the single ring.
func (t *Table) Settle() (*Table, error) {
	if t.Settled() {
		return nil, fmt.Errorf("hashring: settle without a handover in progress")
	}
	return &Table{version: t.version + 1, old: t.next, next: t.next}, nil
}

// diffSegments returns the sorted segments containing at least one hash
// whose owner differs between the rings. The circle is walked arc by
// arc: the union of both rings' points partitions it into elementary
// arcs on which each ring's owner is constant, so comparing one owner
// pair per arc covers every key.
func diffSegments(oldR, newR *Ring, bits uint) []int {
	bounds := slices.Concat(oldR.hashes, newR.hashes)
	slices.Sort(bounds)
	bounds = slices.Compact(bounds)
	if len(bounds) == 0 {
		return nil
	}

	marked := make([]bool, 1<<bits)
	mark := func(lo, hi uint64) { // segments overlapping hashes in [lo, hi]
		for s := int(lo >> (64 - bits)); s <= int(hi>>(64-bits)); s++ {
			marked[s] = true
		}
	}
	for i, b := range bounds {
		// The arc (b, end] has a constant owner in each ring: the member of
		// the first point strictly after b (wrapping past the top).
		if ownerAfter(oldR, b) == ownerAfter(newR, b) {
			continue
		}
		if i+1 < len(bounds) {
			mark(b+1, bounds[i+1])
			continue
		}
		// Last arc wraps: (last, max] then [0, first].
		if b != ^uint64(0) {
			mark(b+1, ^uint64(0))
		}
		mark(0, bounds[0])
	}
	var out []int
	for s, m := range marked {
		if m {
			out = append(out, s)
		}
	}
	return out
}

// ownerAfter returns the member owning hashes just after h — the first
// point with hash > h, wrapping to the first point.
func ownerAfter(r *Ring, h uint64) string {
	pts := r.hashes
	if len(pts) == 0 {
		return ""
	}
	lo, hi := 0, len(pts)
	for lo < hi {
		mid := (lo + hi) / 2
		if pts[mid] > h {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if lo == len(pts) {
		lo = 0
	}
	return r.owners[lo]
}
