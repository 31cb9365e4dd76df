// Segmented ownership: the serve-through scaling refactor divides the
// 64-bit hash circle into 2^bits equal segments, each carrying an
// (owner, epoch) pair derived from a pair of rings. A scaling action is
// no longer one global membership flip — it is a per-segment handover:
//
//	settled ──BeginHandover──▶ in-flight ──CommitSegments*──▶ committed
//	   ▲                           │                              │
//	   │                        Rollback                        Settle
//	   └───────────────────────────┴──────────────────────────────┘
//
// The Table never replaces Ring as the placement authority: Ring.Get on
// the appropriate ring (pre- or post-action) decides key ownership
// exactly as before, so agents, oracles, and tests keep their placement
// logic. The Table only records which of the two rings answers for each
// segment right now, and at which epoch.
package hashring

import (
	"fmt"
	"sort"
)

// DefaultSegmentBits divides the circle into 1024 segments — fine enough
// that a single member's arcs touch only a fraction of them, coarse
// enough that the per-segment phase/epoch arrays stay a few KB.
const DefaultSegmentBits = 10

// SegPhase is one segment's position in the handover state machine.
type SegPhase uint8

const (
	// SegSettled segments route via the old ring; outside a handover every
	// segment is settled and old == next.
	SegSettled SegPhase = iota
	// SegInFlight segments are mid-handover: reads go to the incoming
	// owner first and fall back to the outgoing owner on miss; writes are
	// dual-applied to both.
	SegInFlight
	// SegCommitted segments have completed their handover: the next ring
	// alone answers, at a bumped epoch.
	SegCommitted
)

func (p SegPhase) String() string {
	switch p {
	case SegSettled:
		return "settled"
	case SegInFlight:
		return "in-flight"
	case SegCommitted:
		return "committed"
	default:
		return fmt.Sprintf("SegPhase(%d)", uint8(p))
	}
}

// Table is an immutable versioned ownership map: two rings plus a
// per-segment phase and epoch. Transitions (BeginHandover, CommitSegments,
// Rollback, Settle) return a new Table with a strictly larger version;
// consumers install a table only when its version exceeds what they hold,
// which makes announcement reordering harmless.
type Table struct {
	version uint64
	bits    uint
	old     *Ring // outgoing ownership (authoritative until commit)
	next    *Ring // incoming ownership (== old when settled)
	phase   []SegPhase
	epoch   []uint64
	settled bool
}

// TableOption configures NewTable.
type TableOption func(*tableOptions)

type tableOptions struct {
	bits uint
}

// WithSegmentBits sets the number of segment index bits (2^bits segments).
func WithSegmentBits(bits uint) TableOption {
	return func(o *tableOptions) { o.bits = bits }
}

// NewTable builds a settled table at version 1 with every segment at
// epoch 1 and both rings over members.
func NewTable(members []string, opts ...TableOption) (*Table, error) {
	o := tableOptions{bits: DefaultSegmentBits}
	for _, fn := range opts {
		fn(&o)
	}
	if o.bits < 1 || o.bits > 20 {
		return nil, fmt.Errorf("hashring: segment bits %d out of range [1,20]", o.bits)
	}
	ring, err := New(members)
	if err != nil {
		return nil, err
	}
	n := 1 << o.bits
	t := &Table{
		version: 1,
		bits:    o.bits,
		old:     ring,
		next:    ring,
		phase:   make([]SegPhase, n),
		epoch:   make([]uint64, n),
		settled: true,
	}
	for i := range t.epoch {
		t.epoch[i] = 1
	}
	return t, nil
}

// Version returns the table's monotone version.
func (t *Table) Version() uint64 { return t.version }

// Segments returns the segment count (2^bits).
func (t *Table) Segments() int { return 1 << t.bits }

// Settled reports whether no handover is in progress.
func (t *Table) Settled() bool { return t.settled }

// Members returns the member set the table routes over: the single ring's
// members when settled, the union of both rings' members mid-handover.
func (t *Table) Members() []string {
	if t.settled || t.old == t.next {
		return t.old.Members()
	}
	seen := make(map[string]bool)
	var out []string
	for _, m := range t.old.Members() {
		if !seen[m] {
			seen[m] = true
			out = append(out, m)
		}
	}
	for _, m := range t.next.Members() {
		if !seen[m] {
			seen[m] = true
			out = append(out, m)
		}
	}
	sort.Strings(out)
	return out
}

// SegmentOf returns the segment index of a key: the top bits of its
// position on the circle.
func (t *Table) SegmentOf(key string) int {
	return int(KeyHash(key) >> (64 - t.bits))
}

// SegmentOfHash returns the segment index for a precomputed key hash.
func (t *Table) SegmentOfHash(h uint64) int {
	return int(h >> (64 - t.bits))
}

// Epoch returns the segment's handover epoch. It bumps exactly when the
// segment commits to a new owner, so an import stream tagged with an
// older epoch is recognizably stale.
func (t *Table) Epoch(seg int) uint64 { return t.epoch[seg] }

// Phase returns the segment's handover phase.
func (t *Table) Phase(seg int) SegPhase { return t.phase[seg] }

// InFlightHash reports whether the key hash falls in a segment that is
// mid-handover. It does no allocation — servers call it with
// KeyHashBytes on the request hot path.
func (t *Table) InFlightHash(h uint64) bool {
	return t.phase[h>>(64-t.bits)] == SegInFlight
}

// InFlight reports whether the key's segment is mid-handover.
func (t *Table) InFlight(key string) bool {
	return t.phase[t.SegmentOf(key)] == SegInFlight
}

// Owner returns the key's authoritative owner: the outgoing owner until
// the key's segment commits, the incoming owner afterwards.
func (t *Table) Owner(key string) (string, error) {
	if t.settled {
		return t.old.Get(key)
	}
	if t.phase[t.SegmentOf(key)] == SegCommitted {
		return t.next.Get(key)
	}
	return t.old.Get(key)
}

// ReadPlan returns where a read should go: primary first, then fallback
// on miss. Fallback is empty for settled and committed segments, and for
// in-flight segments whose owner does not actually change (both rings
// agree) — the common case, since a handover remaps only ~1/k of keys.
func (t *Table) ReadPlan(key string) (primary, fallback string, err error) {
	if t.settled {
		primary, err = t.old.Get(key)
		return primary, "", err
	}
	switch t.phase[t.SegmentOf(key)] {
	case SegCommitted:
		primary, err = t.next.Get(key)
		return primary, "", err
	case SegInFlight:
		primary, err = t.next.Get(key)
		if err != nil {
			return "", "", err
		}
		fallback, err = t.old.Get(key)
		if err != nil {
			return "", "", err
		}
		if fallback == primary {
			fallback = ""
		}
		return primary, fallback, nil
	default:
		primary, err = t.old.Get(key)
		return primary, "", err
	}
}

// WritePlan returns where a write must land. For in-flight segments whose
// owner changes, writes are dual-applied — primary is the incoming owner
// (so migrated MRU state is not stale at handover), second the outgoing
// one (still authoritative for fallback reads). Otherwise second is empty.
func (t *Table) WritePlan(key string) (primary, second string, err error) {
	return t.ReadPlan(key)
}

// AcceptsImport reports whether node may import key under this table:
// the authoritative owner always may; while the key's segment is
// in-flight the incoming owner may too (that is what migration is
// filling). A handed-over (committed or re-settled) segment accepts
// imports only on its final owner, so stale streams aimed at the
// outgoing owner are dropped.
func (t *Table) AcceptsImport(node, key string) bool {
	if t.settled {
		owner, err := t.old.Get(key)
		return err == nil && owner == node
	}
	switch t.phase[t.SegmentOf(key)] {
	case SegInFlight:
		if o, err := t.next.Get(key); err == nil && o == node {
			return true
		}
		o, err := t.old.Get(key)
		return err == nil && o == node
	case SegCommitted:
		o, err := t.next.Get(key)
		return err == nil && o == node
	default:
		o, err := t.old.Get(key)
		return err == nil && o == node
	}
}

// BeginHandover starts a handover toward newMembers: segments whose
// ownership actually changes become in-flight, everything else stays
// settled. It returns the new table and the sorted in-flight segment
// indexes. Only a settled table may begin a handover.
func (t *Table) BeginHandover(newMembers []string) (*Table, []int, error) {
	if !t.settled {
		return nil, nil, fmt.Errorf("hashring: handover already in progress (version %d)", t.version)
	}
	next, err := New(newMembers)
	if err != nil {
		return nil, nil, err
	}
	moving := diffSegments(t.old, next, t.bits)
	nt := t.clone()
	nt.next = next
	nt.settled = false
	for _, seg := range moving {
		nt.phase[seg] = SegInFlight
	}
	return nt, moving, nil
}

// CommitSegments commits a wave of in-flight segments: their phase
// becomes committed and their epoch bumps, so the incoming owner alone
// answers for them from this version on.
func (t *Table) CommitSegments(segs []int) (*Table, error) {
	if t.settled {
		return nil, fmt.Errorf("hashring: commit without a handover in progress")
	}
	nt := t.clone()
	for _, seg := range segs {
		if seg < 0 || seg >= len(nt.phase) {
			return nil, fmt.Errorf("hashring: segment %d out of range", seg)
		}
		if nt.phase[seg] != SegInFlight {
			return nil, fmt.Errorf("hashring: segment %d is %s, not in-flight", seg, nt.phase[seg])
		}
		nt.phase[seg] = SegCommitted
		nt.epoch[seg]++
	}
	return nt, nil
}

// Rollback abandons an in-progress handover: every in-flight and
// committed segment returns to settled on the OLD ring, epochs of
// committed segments keep their bump (the aborted commit is still a
// distinct history). Used when a scaling phase fails mid-flight.
func (t *Table) Rollback() *Table {
	nt := t.clone()
	nt.next = nt.old
	nt.settled = true
	for i := range nt.phase {
		nt.phase[i] = SegSettled
	}
	return nt
}

// Settle completes a handover once every in-flight segment committed:
// the next ring becomes the single ring and all segments return to
// settled. Returns an error if any segment is still in-flight.
func (t *Table) Settle() (*Table, error) {
	if t.settled {
		return nil, fmt.Errorf("hashring: settle without a handover in progress")
	}
	for seg, p := range t.phase {
		if p == SegInFlight {
			return nil, fmt.Errorf("hashring: segment %d still in-flight", seg)
		}
	}
	nt := t.clone()
	nt.old = nt.next
	nt.settled = true
	for i := range nt.phase {
		nt.phase[i] = SegSettled
	}
	return nt, nil
}

// clone copies the table with version+1; rings are shared (they are
// internally locked and never mutated by the table).
func (t *Table) clone() *Table {
	nt := &Table{
		version: t.version + 1,
		bits:    t.bits,
		old:     t.old,
		next:    t.next,
		phase:   make([]SegPhase, len(t.phase)),
		epoch:   make([]uint64, len(t.epoch)),
		settled: t.settled,
	}
	copy(nt.phase, t.phase)
	copy(nt.epoch, t.epoch)
	return nt
}

// diffSegments returns the sorted segments containing at least one hash
// whose owner differs between the rings. The circle is walked arc by
// arc: the union of both rings' points partitions it into elementary
// arcs on which each ring's owner is constant, so comparing one owner
// pair per arc covers every key.
func diffSegments(oldR, newR *Ring, bits uint) []int {
	oldR.mu.RLock()
	newR.mu.RLock()
	defer oldR.mu.RUnlock()
	defer newR.mu.RUnlock()

	bounds := make([]uint64, 0, len(oldR.points)+len(newR.points))
	for _, p := range oldR.points {
		bounds = append(bounds, p.hash)
	}
	for _, p := range newR.points {
		bounds = append(bounds, p.hash)
	}
	sort.Slice(bounds, func(i, j int) bool { return bounds[i] < bounds[j] })
	bounds = dedupeUint64(bounds)
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
		if ownerAfterLocked(oldR, b) == ownerAfterLocked(newR, b) {
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

// ownerAfterLocked returns the member owning hashes just after h — the
// first point with hash > h, wrapping to the first point. Callers hold
// the ring's read lock.
func ownerAfterLocked(r *Ring, h uint64) string {
	pts := r.points
	if len(pts) == 0 {
		return ""
	}
	lo, hi := 0, len(pts)
	for lo < hi {
		mid := (lo + hi) / 2
		if pts[mid].hash > h {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if lo == len(pts) {
		lo = 0
	}
	return pts[lo].member
}

func dedupeUint64(s []uint64) []uint64 {
	if len(s) == 0 {
		return s
	}
	out := s[:1]
	for _, v := range s[1:] {
		if v != out[len(out)-1] {
			out = append(out, v)
		}
	}
	return out
}
