// Package hashring implements consistent hashing with virtual nodes, the
// key→node routing scheme the ElMem paper assumes on the client side
// (Sections II-A and III-D4).
//
// The ring hashes each member onto many points of a 64-bit circle; a key is
// owned by the first member clockwise from the key's hash. Consistent
// hashing's defining property — scaling from k to k+1 nodes remaps only
// about 1/(k+1) of the keys — is what makes ElMem's scale-out migration
// cheap, and is verified by this package's tests.
package hashring

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
)

// DefaultReplicas is the default number of virtual nodes per member. 160
// matches libmemcached's ketama default.
const DefaultReplicas = 160

var (
	// ErrEmptyRing is returned when looking up a key on a ring with no members.
	ErrEmptyRing = errors.New("hashring: ring has no members")
	// ErrDuplicateMember is returned when a member list names a node twice.
	ErrDuplicateMember = errors.New("hashring: member already present")
)

// Ring is an immutable consistent hash ring: a membership change builds a
// new Ring. Being immutable, it is safe for concurrent use without a lock.
type Ring struct {
	points  []point  // sorted by hash
	members []string // sorted
}

type point struct {
	hash   uint64
	member string
}

// New creates a ring containing the given members.
func New(members []string) (*Ring, error) {
	return newRing(members, DefaultReplicas)
}

// newRing creates a ring with the given number of virtual nodes per member.
func newRing(members []string, replicas int) (*Ring, error) {
	r := &Ring{
		points:  make([]point, 0, len(members)*replicas),
		members: slices.Clone(members),
	}
	sort.Strings(r.members)
	for i := 1; i < len(r.members); i++ {
		if r.members[i] == r.members[i-1] {
			return nil, fmt.Errorf("%w: %q", ErrDuplicateMember, r.members[i])
		}
	}
	for _, m := range r.members {
		for i := 0; i < replicas; i++ {
			r.points = append(r.points, point{hash: pointHash(m, i), member: m})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		a, b := r.points[i], r.points[j]
		return a.hash < b.hash || a.hash == b.hash && a.member < b.member
	})
	return r, nil
}

// Get returns the member that owns the key.
func (r *Ring) Get(key string) (string, error) {
	return r.GetHash(KeyHash(key))
}

// GetHash returns the member that owns a key position computed by KeyHash
// or KeyHashBytes, so a caller holding key bytes routes without building a
// string.
func (r *Ring) GetHash(h uint64) (string, error) {
	if len(r.points) == 0 {
		return "", ErrEmptyRing
	}
	return r.points[r.search(h)].member, nil
}

// search returns the index of the first point at or clockwise after h,
// wrapping past the top of the circle to the first point.
func (r *Ring) search(h uint64) int {
	lo, hi := 0, len(r.points)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if r.points[mid].hash < h {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(r.points) {
		lo = 0
	}
	return lo
}

// GetN returns up to n distinct members for the key in preference order:
// the owner followed by the next distinct members clockwise. Used for
// replication-aware callers; ElMem itself uses only the owner.
func (r *Ring) GetN(key string, n int) ([]string, error) {
	if len(r.points) == 0 {
		return nil, ErrEmptyRing
	}
	if n <= 0 {
		return nil, nil
	}
	n = min(n, len(r.members))
	i := r.search(KeyHash(key))
	out := make([]string, 0, n)
	for len(out) < n {
		if i == len(r.points) {
			i = 0
		}
		if m := r.points[i].member; !slices.Contains(out, m) {
			out = append(out, m)
		}
		i++
	}
	return out, nil
}

// Members returns the member set in sorted order.
func (r *Ring) Members() []string {
	return append(make([]string, 0, len(r.members)), r.members...)
}

// KeyHash returns the 64-bit position of a key on the circle. It is
// exported so that tests and simulators can partition keys identically to
// the ring without instantiating one.
func KeyHash(key string) uint64 { return fmix64(fnv1a(key)) }

// KeyHashBytes is KeyHash for a byte-slice key, allocation-free: the
// server's hot path tests whether a key is in flight, and a retiring agent
// routes its phase-1 metadata, without converting cache key bytes to a
// string.
func KeyHashBytes(key []byte) uint64 { return fmix64(fnv1a(key)) }

// pointHash positions virtual node i of a member on the circle: the key
// hash of "<member>#<i>".
func pointHash(member string, i int) uint64 {
	var buf [64]byte
	b := append(buf[:0], member...)
	b = append(b, '#')
	return KeyHashBytes(strconv.AppendInt(b, int64(i), 10))
}

// fnv1a is 64-bit FNV-1a: the one key hash loop behind KeyHash,
// KeyHashBytes and the ring's point placement, so the ring, the ownership
// table and byte-keyed routes cannot drift apart.
func fnv1a[K string | []byte](key K) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	var h uint64 = offset64
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	return h
}

// fmix64 is the MurmurHash3 64-bit finalizer. FNV-1a over near-identical
// inputs (member names differing in a suffix digit) yields correlated
// outputs that skew vnode placement; the finalizer's avalanche restores
// uniform spread on the circle.
func fmix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}
