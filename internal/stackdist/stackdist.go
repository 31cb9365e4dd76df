// Package stackdist computes stack-distance profiles of request streams,
// the measurement ElMem's AutoScaler uses to size the Memcached tier
// (Section III-B): by tracking the stack distance of every request in a
// single pass, the hit rate of *every* cache size is known at once, so the
// memory needed for any target hit rate falls out directly.
//
// The stack distance of a request for item x is the number of distinct
// items referenced since the previous reference to x (the depth of x in an
// LRU stack). A cache of capacity C (in items) hits exactly the requests
// with stack distance < C.
//
// Two profilers are provided:
//
//   - Profiler: exact Mattson computation in O(log M) per request using a
//     Fenwick tree over access timestamps;
//   - MimirH: the bucketed approximation of the MIMIR system the paper's
//     implementation uses, trading a bounded relative error for O(1)
//     amortized updates and a fixed memory footprint.
package stackdist

import (
	"fmt"
	"math"
	"sort"
)

// InfiniteDistance marks a cold miss (first reference to an item): no
// finite cache size can hit it.
const InfiniteDistance = -1

// Profiler computes exact stack distances with Mattson's algorithm.
//
// Implementation: each request gets an increasing timestamp. A Fenwick
// tree marks the timestamps that are the *most recent* reference of some
// item; the stack distance of a re-reference is the count of marked
// timestamps after the item's previous reference. Timestamps are
// periodically compacted so the tree stays proportional to the number of
// distinct items.
type Profiler struct {
	last map[string]int // key → timestamp of most recent reference
	tree []int          // Fenwick tree over timestamps (1-based)
	next int            // next timestamp (0-based logical position)

	hist       map[int]uint64 // finite stack distance → count
	coldMisses uint64
	total      uint64
}

// NewProfiler creates an exact stack-distance profiler.
func NewProfiler() *Profiler {
	return &Profiler{
		last: make(map[string]int),
		tree: make([]int, 1),
		hist: make(map[int]uint64),
	}
}

// Record processes one request and returns its stack distance
// (InfiniteDistance for a cold miss).
func (p *Profiler) Record(key string) int {
	p.total++
	prev, seen := p.last[key]
	var dist int
	if !seen {
		dist = InfiniteDistance
		p.coldMisses++
	} else {
		// Distinct items referenced after prev = marked stamps in (prev, next).
		dist = p.countAfter(prev)
		p.hist[dist]++
		p.clear(prev)
	}
	pos := p.next
	p.next++
	p.grow(p.next)
	p.mark(pos)
	p.last[key] = pos

	// Compact when the timestamp space is 4x the live item count.
	if p.next > 4*len(p.last) && p.next > 1024 {
		p.compact()
	}
	return dist
}

// Curve builds the hit-rate curve from the current histogram.
func (p *Profiler) Curve() *Curve { return newCurve(p.hist, p.total) }

// Fenwick-tree plumbing. Positions are 0-based externally, 1-based inside.

// grow extends the Fenwick tree to cover n positions. An appended node m
// covers the range (m−lowbit(m), m]; it must be initialized to that range's
// current sum (computable from existing nodes), not zero, or marks set
// before the growth vanish from later prefix queries.
func (p *Profiler) grow(n int) {
	for len(p.tree) < n+1 {
		m := len(p.tree)
		lb := m & (-m)
		v := p.prefix(m-1) - p.prefix(m-lb)
		p.tree = append(p.tree, v)
	}
}

func (p *Profiler) mark(pos int) { p.add(pos+1, 1) }

func (p *Profiler) clear(pos int) { p.add(pos+1, -1) }

func (p *Profiler) add(i, delta int) {
	for ; i < len(p.tree); i += i & (-i) {
		p.tree[i] += delta
	}
}

// prefix returns the count of marked stamps in positions [0, i) (0-based
// exclusive bound).
func (p *Profiler) prefix(i int) int {
	s := 0
	for ; i > 0; i -= i & (-i) {
		s += p.tree[i]
	}
	return s
}

// countAfter counts marked stamps strictly after 0-based position pos.
func (p *Profiler) countAfter(pos int) int {
	totalMarked := p.prefix(p.next)
	upTo := p.prefix(pos + 1)
	return totalMarked - upTo
}

// compact renumbers live timestamps densely, rebuilding the tree.
func (p *Profiler) compact() {
	keys := make([]string, 0, len(p.last))
	for k := range p.last {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return p.last[keys[i]] < p.last[keys[j]] })
	p.tree = make([]int, len(keys)+2)
	for i, k := range keys {
		p.last[k] = i
		p.mark(i)
	}
	p.next = len(keys)
}

// Curve is a hit-rate-vs-cache-size curve derived from a stack-distance
// histogram. Sizes are in items.
type Curve struct {
	// distances are the sorted finite stack distances present.
	distances []int
	// cumulative[i] = number of requests with distance <= distances[i].
	cumulative []uint64
	total      uint64
}

func newCurve(hist map[int]uint64, total uint64) *Curve {
	ds := make([]int, 0, len(hist))
	for d := range hist {
		ds = append(ds, d)
	}
	sort.Ints(ds)
	cum := make([]uint64, len(ds))
	var running uint64
	for i, d := range ds {
		running += hist[d]
		cum[i] = running
	}
	return &Curve{distances: ds, cumulative: cum, total: total}
}

// HitRate returns the hit rate of an LRU cache holding capacity items.
func (c *Curve) HitRate(capacity int) float64 {
	if c.total == 0 || capacity <= 0 {
		return 0
	}
	// Hits are requests with distance < capacity, i.e. distance <= capacity-1.
	i := sort.SearchInts(c.distances, capacity) // first distance >= capacity
	if i == 0 {
		return 0
	}
	return float64(c.cumulative[i-1]) / float64(c.total)
}

// MaxHitRate is the hit rate of an infinite cache (1 − cold-miss ratio).
func (c *Curve) MaxHitRate() float64 {
	if c.total == 0 || len(c.cumulative) == 0 {
		return 0
	}
	return float64(c.cumulative[len(c.cumulative)-1]) / float64(c.total)
}

// ItemsForHitRate returns the smallest capacity (items) achieving the
// target hit rate, or false when no finite capacity reaches it.
func (c *Curve) ItemsForHitRate(target float64) (int, bool) {
	if target <= 0 {
		return 0, true
	}
	if c.total == 0 || c.MaxHitRate() < target {
		return 0, false
	}
	needed := uint64(math.Ceil(target * float64(c.total)))
	i := sort.Search(len(c.cumulative), func(i int) bool { return c.cumulative[i] >= needed })
	if i == len(c.cumulative) {
		return 0, false
	}
	return c.distances[i] + 1, true
}

// Points returns the curve's breakpoints as (capacity, hitRate) pairs in
// ascending capacity order: capacity distances[i]+1 is the smallest cache
// that hits every request counted in cumulative[i]. Consumers walking the
// whole curve (the tenant arbiter's marginal-utility gradients, composed
// autoscaler curves) use this instead of probing HitRate size by size.
func (c *Curve) Points() (capacities []int, hitRates []float64) {
	if c.total == 0 {
		return nil, nil
	}
	capacities = make([]int, len(c.distances))
	hitRates = make([]float64, len(c.distances))
	for i, d := range c.distances {
		capacities[i] = d + 1
		hitRates[i] = float64(c.cumulative[i]) / float64(c.total)
	}
	return capacities, hitRates
}

// MimirH approximates stack distances with the MIMIR bucket scheme: keys
// live in B buckets ordered hottest (bucket 0) to coldest; a hit in bucket
// i has estimated distance ≈ the number of keys in buckets 0..i-1 plus
// half of bucket i. When bucket 0 fills, buckets age by one position.
//
// Keys reference bucket objects (not indices), so aging re-positions the
// B bucket objects in O(B + |evicted bucket|) instead of relabelling every
// tracked key — the O(1)-amortized update MIMIR is built for.
//
// Keys are 64-bit hashes, not strings: the cache's hot path already
// computes a routing hash per access, so the tenant MRC estimator can
// sample (tenant, hash) pairs without materializing key strings. A hash
// collision merges two keys' recency — at 48 sampled hash bits the effect
// on a bucketed estimate is far below the bucketing error.
type MimirH struct {
	buckets   []*mimirBucket // index 0 = hottest
	bucketCap int

	where map[uint64]*mimirBucket

	hist       map[int]uint64
	coldMisses uint64
	total      uint64
}

// mimirBucket is one aging cohort; pos is its current index in buckets.
type mimirBucket struct {
	pos  int
	keys map[uint64]struct{}
}

// NewMimirH creates a hash-keyed MIMIR profiler with nBuckets buckets of
// bucketCap keys each; the product bounds the distinct keys tracked.
func NewMimirH(nBuckets, bucketCap int) (*MimirH, error) {
	if nBuckets < 2 || bucketCap < 1 {
		return nil, fmt.Errorf("stackdist: need >= 2 buckets of >= 1 key, got %d x %d", nBuckets, bucketCap)
	}
	m := &MimirH{
		buckets:   make([]*mimirBucket, nBuckets),
		bucketCap: bucketCap,
		where:     make(map[uint64]*mimirBucket),
		hist:      make(map[int]uint64),
	}
	for i := range m.buckets {
		m.buckets[i] = &mimirBucket{pos: i, keys: make(map[uint64]struct{})}
	}
	return m, nil
}

// Record processes one request and returns the estimated stack distance.
func (m *MimirH) Record(key uint64) int {
	m.total++
	b, seen := m.where[key]
	var dist int
	if !seen {
		dist = InfiniteDistance
		m.coldMisses++
	} else {
		est := 0
		for j := 0; j < b.pos; j++ {
			est += len(m.buckets[j].keys)
		}
		est += len(b.keys) / 2
		dist = est
		m.hist[dist]++
		delete(b.keys, key)
	}
	// Promote to the hottest bucket, aging if full.
	if len(m.buckets[0].keys) >= m.bucketCap {
		m.age()
	}
	m.buckets[0].keys[key] = struct{}{}
	m.where[key] = m.buckets[0]
	return dist
}

// age shifts every bucket one position colder; the coldest bucket is
// recycled as the new hottest bucket after its keys fall out.
func (m *MimirH) age() {
	last := len(m.buckets) - 1
	coldest := m.buckets[last]
	for key := range coldest.keys {
		delete(m.where, key)
	}
	copy(m.buckets[1:], m.buckets[:last])
	coldest.keys = make(map[uint64]struct{}, m.bucketCap)
	m.buckets[0] = coldest
	for i, b := range m.buckets {
		b.pos = i
	}
}

// Curve builds the (approximate) hit-rate curve.
func (m *MimirH) Curve() *Curve { return newCurve(m.hist, m.total) }
