// Package hotkey implements online hot-key detection and replicated
// serving for the ElMem tier. Node-count elasticity alone cannot absorb
// Zipf-extreme skew: a handful of keys saturate their consistent-hash
// owner long before the tier runs out of capacity. The fix, following
// Facebook's memcache deployment, is to detect the hottest keys online
// with a cheap frequency sketch, promote them to a small replica set
// served by R nodes, and let clients spread reads across that set while
// writes keep flowing through the home node (so invalidation stays a
// single fan-out).
//
// The package has two halves: the Detector (a sampled SpaceSaving top-K
// sketch fed from the server's zero-allocation hot path) and the
// Replicator (promotion/demotion state, replica pushes, and the versioned
// hot-key table clients poll). See DESIGN.md, "Hot-key replication".
package hotkey

import (
	"sort"
	"sync"
)

// Sketch is a SpaceSaving top-K frequency summary (Metwally et al.): a
// fixed set of monitored keys with counts and per-key overestimation
// bounds. When an unmonitored key arrives at capacity, it replaces the
// minimum-count entry and inherits its count as the error bound — the
// classic guarantee is count ≤ true+err and err ≤ N/capacity.
//
// Record is zero-allocation in steady state: a monitored key is a map
// lookup (the compiler elides the []byte→string conversion for map
// indexing) plus a heap sift. Only admitting a brand-new key materializes
// a string. Sketch is not safe for concurrent use; Detector serializes it.
type Sketch struct {
	capacity int
	total    uint64
	entries  map[string]*ssEntry
	heap     []*ssEntry // min-heap by count
}

type ssEntry struct {
	key   string
	count uint64
	errs  uint64 // overestimation bound inherited on replacement
	idx   int    // heap position
}

// NewSketch creates a sketch monitoring at most capacity keys.
func NewSketch(capacity int) *Sketch {
	if capacity < 1 {
		capacity = 1
	}
	return &Sketch{
		capacity: capacity,
		entries:  make(map[string]*ssEntry, capacity),
		heap:     make([]*ssEntry, 0, capacity),
	}
}

// Record counts one observation of key.
func (s *Sketch) Record(key []byte) {
	s.total++
	if e, ok := s.entries[string(key)]; ok { // no alloc: map index conversion
		e.count++
		s.siftDown(e.idx)
		return
	}
	if len(s.heap) < s.capacity {
		e := &ssEntry{key: string(key), count: 1, idx: len(s.heap)}
		s.heap = append(s.heap, e)
		s.entries[e.key] = e
		s.siftUp(e.idx)
		return
	}
	// Replace the minimum: SpaceSaving's admission rule.
	e := s.heap[0]
	delete(s.entries, e.key)
	e.key = string(key)
	e.errs = e.count
	e.count++
	s.entries[e.key] = e
	s.siftDown(0)
}

// Total reports how many observations the sketch has absorbed since the
// last Decay halving.
func (s *Sketch) Total() uint64 { return s.total }

// KeyCount is one reported top entry.
type KeyCount struct {
	// Key is the monitored key.
	Key string
	// Count is the estimated frequency (count ≤ true + Err).
	Count uint64
	// Err is the overestimation bound inherited at admission.
	Err uint64
}

// Top returns up to k entries ordered by count descending (key ascending
// on ties, so the order is deterministic).
func (s *Sketch) Top(k int) []KeyCount {
	out := make([]KeyCount, 0, len(s.heap))
	for _, e := range s.heap {
		out = append(out, KeyCount{Key: e.key, Count: e.count, Err: e.errs})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Key < out[j].Key
	})
	if k < len(out) {
		out = out[:k]
	}
	return out
}

// Decay halves every count (and the total), dropping entries that reach
// zero. Called once per evaluation tick, it turns the sketch into an
// exponentially decayed window so yesterday's flash crowd cannot pin
// today's promotions.
func (s *Sketch) Decay() {
	kept := s.heap[:0]
	for _, e := range s.heap {
		e.count /= 2
		e.errs /= 2
		if e.count == 0 {
			delete(s.entries, e.key)
			continue
		}
		kept = append(kept, e)
	}
	s.heap = kept
	for i := range s.heap {
		s.heap[i].idx = i
	}
	// Re-establish the heap property bottom-up.
	for i := len(s.heap)/2 - 1; i >= 0; i-- {
		s.siftDown(i)
	}
	s.total /= 2
}

func (s *Sketch) less(i, j int) bool { return s.heap[i].count < s.heap[j].count }

func (s *Sketch) swap(i, j int) {
	s.heap[i], s.heap[j] = s.heap[j], s.heap[i]
	s.heap[i].idx = i
	s.heap[j].idx = j
}

func (s *Sketch) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !s.less(i, parent) {
			return
		}
		s.swap(i, parent)
		i = parent
	}
}

func (s *Sketch) siftDown(i int) {
	n := len(s.heap)
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && s.less(l, min) {
			min = l
		}
		if r < n && s.less(r, min) {
			min = r
		}
		if min == i {
			return
		}
		s.swap(i, min)
		i = min
	}
}

// Detector is the hot-path front of the sketch: a sampling mask (one in
// SampleRate operations, rounded up to a power of two) ahead of a
// mutex-guarded Sketch. Callers gate on their own op counter (see Mask),
// so the per-request cost on the serving hot path is one mask test and
// performs zero heap allocations.
type Detector struct {
	mask uint64

	mu sync.Mutex
	sk *Sketch
}

// NewDetector creates a detector with the given sketch capacity, sampling
// one in sampleRate operations (values < 2 record every operation).
func NewDetector(capacity, sampleRate int) *Detector {
	mask := uint64(0)
	if sampleRate > 1 {
		r := uint64(1)
		for r < uint64(sampleRate) {
			r <<= 1
		}
		mask = r - 1
	}
	return &Detector{mask: mask, sk: NewSketch(capacity)}
}

// Mask exposes the power-of-two sampling mask for callers that keep their
// own cheaper op counter (e.g. one per connection, avoiding the shared
// atomic): record when counter&Mask() == 0.
func (d *Detector) Mask() uint64 { return d.mask }

// RecordSampled records one observation that already passed the caller's
// sampling gate.
func (d *Detector) RecordSampled(key []byte) {
	d.mu.Lock()
	d.sk.Record(key)
	d.mu.Unlock()
}

// Top snapshots the k hottest entries and the sampled total they are
// measured against.
func (d *Detector) Top(k int) ([]KeyCount, uint64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.sk.Top(k), d.sk.Total()
}

// Decay halves the window (see Sketch.Decay).
func (d *Detector) Decay() {
	d.mu.Lock()
	d.sk.Decay()
	d.mu.Unlock()
}
