package stackdist

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestProfilerColdMisses(t *testing.T) {
	p := NewProfiler()
	for i := 0; i < 5; i++ {
		if d := p.Record(fmt.Sprintf("k%d", i)); d != InfiniteDistance {
			t.Fatalf("first reference of k%d has distance %d, want infinite", i, d)
		}
	}
	if p.coldMisses != 5 || p.total != 5 || len(p.last) != 5 {
		t.Fatalf("cold=%d total=%d distinct=%d, want 5/5/5", p.coldMisses, p.total, len(p.last))
	}
}

func TestProfilerKnownDistances(t *testing.T) {
	p := NewProfiler()
	// a b c a : distance of final a = 2 distinct items (b, c) in between.
	// b : distance 2 (c, a since previous b).
	// b : distance 0 (immediate re-reference).
	seq := []struct {
		key  string
		want int
	}{
		{"a", InfiniteDistance},
		{"b", InfiniteDistance},
		{"c", InfiniteDistance},
		{"a", 2},
		{"b", 2},
		{"b", 0},
	}
	for i, s := range seq {
		if got := p.Record(s.key); got != s.want {
			t.Fatalf("step %d (%s): distance %d, want %d", i, s.key, got, s.want)
		}
	}
}

func TestProfilerRepeatedKey(t *testing.T) {
	p := NewProfiler()
	p.Record("x")
	for i := 0; i < 10; i++ {
		if d := p.Record("x"); d != 0 {
			t.Fatalf("immediate re-reference distance %d, want 0", d)
		}
	}
}

func TestProfilerCompaction(t *testing.T) {
	p := NewProfiler()
	// Many re-references to few keys force timestamp growth and compaction.
	// A whole number of 7-key cycles ends on k6, so the next k0 reference
	// sees exactly 6 distinct keys.
	for i := 0; i < 49994; i++ { // 7142 full cycles
		p.Record(fmt.Sprintf("k%d", i%7))
	}
	// After compaction the distances must still be exact.
	// Cycle of 7 keys: steady-state distance is 6.
	if d := p.Record("k0"); d != 6 {
		t.Fatalf("post-compaction distance %d, want 6", d)
	}
	if len(p.last) != 7 {
		t.Fatalf("distinct = %d, want 7", len(p.last))
	}
}

// referenceStackDistance is a brute-force LRU-stack model.
type referenceStackDistance struct {
	stack []string // index 0 = most recent
}

func (r *referenceStackDistance) record(key string) int {
	for i, k := range r.stack {
		if k == key {
			r.stack = append(r.stack[:i], r.stack[i+1:]...)
			r.stack = append([]string{key}, r.stack...)
			return i
		}
	}
	r.stack = append([]string{key}, r.stack...)
	return InfiniteDistance
}

func TestPropertyProfilerMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := NewProfiler()
		var ref referenceStackDistance
		// Long enough to cross Fenwick power-of-two growth boundaries and
		// trigger compaction several times.
		for i := 0; i < 5000; i++ {
			key := fmt.Sprintf("k%d", rng.Intn(60))
			if p.Record(key) != ref.record(key) {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 15}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestCurveHitRate(t *testing.T) {
	p := NewProfiler()
	// Cycle through 4 keys 100 times: every re-reference has distance 3,
	// so capacity 4 hits everything warm; capacity <= 3 hits nothing.
	for i := 0; i < 400; i++ {
		p.Record(fmt.Sprintf("k%d", i%4))
	}
	c := p.Curve()
	if hr := c.HitRate(3); hr != 0 {
		t.Fatalf("HitRate(3) = %v, want 0 for a 4-key cycle", hr)
	}
	hr4 := c.HitRate(4)
	want := float64(400-4) / 400 // all but cold misses
	if hr4 != want {
		t.Fatalf("HitRate(4) = %v, want %v", hr4, want)
	}
	if c.HitRate(100) != want {
		t.Fatal("hit rate should plateau at max")
	}
	if c.MaxHitRate() != want {
		t.Fatalf("MaxHitRate = %v, want %v", c.MaxHitRate(), want)
	}
	if c.HitRate(0) != 0 {
		t.Fatal("HitRate(0) must be 0")
	}
}

func TestCurveItemsForHitRate(t *testing.T) {
	p := NewProfiler()
	for i := 0; i < 400; i++ {
		p.Record(fmt.Sprintf("k%d", i%4))
	}
	c := p.Curve()
	items, ok := c.ItemsForHitRate(0.9)
	if !ok || items != 4 {
		t.Fatalf("ItemsForHitRate(0.9) = %d/%v, want 4/true", items, ok)
	}
	if _, ok := c.ItemsForHitRate(0.999); ok {
		t.Fatal("unattainable hit rate reported attainable")
	}
	if items, ok := c.ItemsForHitRate(0); !ok || items != 0 {
		t.Fatal("zero target should need zero items")
	}
}

func TestCurveTable(t *testing.T) {
	p := NewProfiler()
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 20000; i++ {
		p.Record(fmt.Sprintf("k%d", rng.Intn(200)))
	}
	// Section III-B's table: the memory for every integer hit-rate percent
	// from one pass.
	c := p.Curve()
	var table [101]int
	last := 0
	for pct := 1; pct <= 100; pct++ {
		items, ok := c.ItemsForHitRate(float64(pct) / 100)
		if !ok {
			continue // unattainable
		}
		if items < last {
			t.Fatalf("table not monotone: %d%% needs %d < %d", pct, items, last)
		}
		table[pct], last = items, items
	}
	if table[50] == 0 {
		t.Fatal("50% hit rate should be attainable on a 200-key uniform stream")
	}
}

func TestCurveEmpty(t *testing.T) {
	p := NewProfiler()
	c := p.Curve()
	if c.HitRate(10) != 0 || c.MaxHitRate() != 0 {
		t.Fatal("empty curve must report zero hit rates")
	}
	if _, ok := c.ItemsForHitRate(0.5); ok {
		t.Fatal("empty curve cannot attain any hit rate")
	}
}

func TestNewMimirValidation(t *testing.T) {
	if _, err := NewMimirH(1, 10); err == nil {
		t.Fatal("want error for a single bucket")
	}
	if _, err := NewMimirH(4, 0); err == nil {
		t.Fatal("want error for empty buckets")
	}
}

func TestMimirTracksHotKeys(t *testing.T) {
	m, err := NewMimirH(8, 16)
	if err != nil {
		t.Fatal(err)
	}
	// A single hot key re-referenced often must report small distances.
	const hot = 1 << 40
	m.Record(hot)
	for i := 0; i < 100; i++ {
		m.Record(uint64(i % 8))
		if d := m.Record(hot); d == InfiniteDistance || d > 16 {
			t.Fatalf("hot key distance %d, want small", d)
		}
	}
}

func TestMimirAgingEvicts(t *testing.T) {
	m, err := NewMimirH(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	const victim = 1 << 40
	m.Record(victim)
	// Flood with enough distinct keys to age victim out of both buckets.
	for i := 0; i < 40; i++ {
		m.Record(uint64(i))
	}
	if d := m.Record(victim); d != InfiniteDistance {
		t.Fatalf("evicted key distance %d, want infinite (re-cold)", d)
	}
}

func TestMimirApproximatesExactCurve(t *testing.T) {
	// MIMIR trades point accuracy for O(1) updates: estimates carry a
	// bucket-granularity bias and keys aged out of the tracked window
	// re-count as cold. The properties that matter to the AutoScaler are
	// (a) plateau agreement — for capacities comfortably above the working
	// set the curves coincide, and (b) the memory answer for a target hit
	// rate lands within a small multiplicative factor of exact.
	exact := NewProfiler()
	approx, err := NewMimirH(128, 8)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	// Working set of 100 keys, gaps well inside the 1024-key tracking window.
	for i := 0; i < 60000; i++ {
		exact.Record(fmt.Sprintf("k%d", rng.Intn(100)))
		approx.Record(uint64(rng.Intn(100)))
	}
	ec, ac := exact.Curve(), approx.Curve()
	for _, capacity := range []int{200, 400, 800} {
		e, a := ec.HitRate(capacity), ac.HitRate(capacity)
		if diff := e - a; diff < -0.1 || diff > 0.1 {
			t.Errorf("capacity %d: exact %.3f vs mimir %.3f — plateau disagreement", capacity, e, a)
		}
	}
	eItems, ok1 := ec.ItemsForHitRate(0.5)
	aItems, ok2 := ac.ItemsForHitRate(0.5)
	if !ok1 || !ok2 {
		t.Fatalf("50%% hit rate unattainable: exact=%v mimir=%v", ok1, ok2)
	}
	if ratio := float64(aItems) / float64(eItems); ratio < 0.25 || ratio > 4 {
		t.Errorf("ItemsForHitRate(0.5): mimir %d vs exact %d (%.1fx)", aItems, eItems, ratio)
	}
}

func TestMimirCurveMonotone(t *testing.T) {
	m, err := NewMimirH(64, 8)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 30000; i++ {
		m.Record(uint64(rng.Intn(300)))
	}
	c := m.Curve()
	prev := 0.0
	for capacity := 1; capacity <= 1000; capacity += 13 {
		hr := c.HitRate(capacity)
		if hr < prev {
			t.Fatalf("curve not monotone at capacity %d: %.4f < %.4f", capacity, hr, prev)
		}
		prev = hr
	}
}

func TestMimirCounters(t *testing.T) {
	m, err := NewMimirH(4, 8)
	if err != nil {
		t.Fatal(err)
	}
	m.Record(7)
	m.Record(7)
	if m.total != 2 {
		t.Fatalf("Total = %d, want 2", m.total)
	}
	if m.coldMisses != 1 {
		t.Fatalf("cold misses = %d, want 1", m.coldMisses)
	}
}
