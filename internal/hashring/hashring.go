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
	"sort"
	"strconv"
	"sync"
)

// DefaultReplicas is the default number of virtual nodes per member. 160
// matches libmemcached's ketama default.
const DefaultReplicas = 160

var (
	// ErrEmptyRing is returned when looking up a key on a ring with no members.
	ErrEmptyRing = errors.New("hashring: ring has no members")
	// ErrDuplicateMember is returned when adding a member that is already present.
	ErrDuplicateMember = errors.New("hashring: member already present")
	// ErrUnknownMember is returned when removing a member that is not present.
	ErrUnknownMember = errors.New("hashring: member not present")
)

// Ring is a consistent hash ring. It is safe for concurrent use.
type Ring struct {
	mu       sync.RWMutex
	replicas int
	points   []point // sorted by hash
	members  map[string]struct{}
}

type point struct {
	hash   uint64
	member string
}

// Option configures a Ring.
type Option interface {
	apply(*ringOptions)
}

type ringOptions struct {
	replicas int
}

type replicasOption int

func (o replicasOption) apply(opts *ringOptions) { opts.replicas = int(o) }

// WithReplicas sets the number of virtual nodes per member.
func WithReplicas(n int) Option { return replicasOption(n) }

// New creates a ring containing the given members.
func New(members []string, opts ...Option) (*Ring, error) {
	options := ringOptions{replicas: DefaultReplicas}
	for _, o := range opts {
		o.apply(&options)
	}
	if options.replicas <= 0 {
		return nil, fmt.Errorf("hashring: replicas must be positive, got %d", options.replicas)
	}
	r := &Ring{
		replicas: options.replicas,
		members:  make(map[string]struct{}, len(members)),
	}
	for _, m := range members {
		if err := r.Add(m); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// Add inserts a member into the ring.
func (r *Ring) Add(member string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.members[member]; ok {
		return fmt.Errorf("%w: %q", ErrDuplicateMember, member)
	}
	r.members[member] = struct{}{}
	for i := 0; i < r.replicas; i++ {
		r.points = append(r.points, point{hash: pointHash(member, i), member: member})
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].hash < r.points[j].hash })
	return nil
}

// Remove deletes a member and all its virtual nodes from the ring.
func (r *Ring) Remove(member string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.members[member]; !ok {
		return fmt.Errorf("%w: %q", ErrUnknownMember, member)
	}
	delete(r.members, member)
	kept := r.points[:0]
	for _, p := range r.points {
		if p.member != member {
			kept = append(kept, p)
		}
	}
	r.points = kept
	return nil
}

// Get returns the member that owns the key.
func (r *Ring) Get(key string) (string, error) {
	return r.GetHash(KeyHash(key))
}

// GetHash returns the member that owns a key position computed by KeyHash
// or KeyHashBytes, so a caller holding key bytes routes without building a
// string.
func (r *Ring) GetHash(h uint64) (string, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.points) == 0 {
		return "", ErrEmptyRing
	}
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].member, nil
}

// GetN returns up to n distinct members for the key in preference order:
// the owner followed by the next distinct members clockwise. Used for
// replication-aware callers; ElMem itself uses only the owner.
func (r *Ring) GetN(key string, n int) ([]string, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.points) == 0 {
		return nil, ErrEmptyRing
	}
	if n <= 0 {
		return nil, nil
	}
	if n > len(r.members) {
		n = len(r.members)
	}
	h := KeyHash(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	out := make([]string, 0, n)
	seen := make(map[string]struct{}, n)
	for len(out) < n {
		if i == len(r.points) {
			i = 0
		}
		m := r.points[i].member
		if _, ok := seen[m]; !ok {
			seen[m] = struct{}{}
			out = append(out, m)
		}
		i++
	}
	return out, nil
}

// Members returns the current member set in sorted order.
func (r *Ring) Members() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.members))
	for m := range r.members {
		out = append(out, m)
	}
	sort.Strings(out)
	return out
}

// Len returns the number of members.
func (r *Ring) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.members)
}

// Contains reports whether member is in the ring.
func (r *Ring) Contains(member string) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	_, ok := r.members[member]
	return ok
}

// Clone returns an independent copy of the ring with the same membership
// and replica count. ElMem Agents clone the ring and drop retiring members
// to compute phase-1 target nodes without disturbing live routing.
func (r *Ring) Clone() *Ring {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := &Ring{
		replicas: r.replicas,
		points:   make([]point, len(r.points)),
		members:  make(map[string]struct{}, len(r.members)),
	}
	copy(out.points, r.points)
	for m := range r.members {
		out.members[m] = struct{}{}
	}
	return out
}

// KeyHash returns the 64-bit position of a key on the circle. It is
// exported so that tests and simulators can partition keys identically to
// the ring without instantiating one.
func KeyHash(key string) uint64 { return fmix64(fnv1a(key)) }

// KeyHashBytes is KeyHash for a byte-slice key, allocation-free: the
// server's hot path tests segment membership, and a retiring agent routes
// its phase-1 metadata, without converting cache key bytes to a string.
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
// KeyHashBytes and the ring's point placement, so the ring, the segment
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
