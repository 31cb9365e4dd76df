package workload

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestNewZipfRejectsBadParams(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tests := []struct {
		name string
		s    float64
		n    uint64
	}{
		{name: "zero keyspace", s: 1.0, n: 0},
		{name: "zero exponent", s: 0, n: 10},
		{name: "negative exponent", s: -1, n: 10},
		{name: "nan exponent", s: math.NaN(), n: 10},
		{name: "inf exponent", s: math.Inf(1), n: 10},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := NewZipf(rng, tt.s, tt.n); err == nil {
				t.Fatalf("NewZipf(%v, %v) succeeded, want error", tt.s, tt.n)
			}
		})
	}
}

func TestZipfRange(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	z, err := NewZipf(rng, 0.99, 1000)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10000; i++ {
		if r := z.Next(); r >= 1000 {
			t.Fatalf("rank %d out of range [0, 1000)", r)
		}
	}
}

func TestZipfSkew(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	z, err := NewZipf(rng, 1.2, 10000)
	if err != nil {
		t.Fatal(err)
	}
	counts := make(map[uint64]int)
	const draws = 200000
	for i := 0; i < draws; i++ {
		counts[z.Next()]++
	}
	// Rank 0 must dominate rank 99 by a wide margin under s=1.2:
	// p(0)/p(99) = 100^1.2 ≈ 251. Allow generous sampling slack.
	if counts[0] < 20*counts[99] {
		t.Fatalf("rank 0 drawn %d times, rank 99 %d times; want heavy skew", counts[0], counts[99])
	}
	// The head should account for a large share of total draws.
	head := 0
	for r := uint64(0); r < 100; r++ {
		head += counts[r]
	}
	if frac := float64(head) / draws; frac < 0.5 {
		t.Fatalf("top-100 ranks hold %.2f of mass, want > 0.5 under s=1.2", frac)
	}
}

func TestZipfRejectionSamplerRange(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	// Force the rejection-inversion path with a keyspace above the CDF limit.
	n := uint64(cdfTableLimit + 1)
	z, err := NewZipf(rng, 0.8, n)
	if err != nil {
		t.Fatal(err)
	}
	if !z.useRejection {
		t.Fatal("expected rejection sampler for large keyspace")
	}
	for i := 0; i < 20000; i++ {
		if r := z.Next(); r >= n {
			t.Fatalf("rank %d out of range [0, %d)", r, n)
		}
	}
}

func TestZipfRejectionSkewMatchesCDF(t *testing.T) {
	// The rejection path and CDF path should produce similar head mass for
	// the same distribution parameters.
	const n = uint64(cdfTableLimit + 1)
	const draws = 100000
	headMass := func(force bool) float64 {
		rng := rand.New(rand.NewSource(3))
		z, err := NewZipf(rng, 1.01, n)
		if err != nil {
			t.Fatal(err)
		}
		if force && !z.useRejection {
			t.Fatal("want rejection path")
		}
		head := 0
		for i := 0; i < draws; i++ {
			if z.Next() < 1000 {
				head++
			}
		}
		return float64(head) / draws
	}
	got := headMass(true)
	// Analytic head mass for s=1.01 over ~2^20 keys: H(1000)/H(n) ≈ 0.52.
	if got < 0.35 || got > 0.70 {
		t.Fatalf("rejection sampler head mass = %.3f, want within [0.35, 0.70]", got)
	}
}

func TestGeneralizedParetoBounds(t *testing.T) {
	for rank := uint64(0); rank < 50000; rank++ {
		s := SizeForRank(rank, DefaultParetoScale, DefaultParetoShape, 1, 4096)
		if s < 1 || s > 4096 {
			t.Fatalf("size %d out of bounds [1, 4096]", s)
		}
	}
}

func TestGeneralizedParetoZeroShape(t *testing.T) {
	// shape=0 degenerates to exponential with mean = scale.
	sum := 0.0
	const draws = 200000
	for rank := uint64(0); rank < draws; rank++ {
		sum += float64(SizeForRank(rank, 100, 0, 1, 1<<20))
	}
	got := sum / draws
	if got < 85 || got > 115 {
		t.Fatalf("exponential-case mean %.1f, want ≈100", got)
	}
}

func TestNewGeneralizedParetoRejectsBadParams(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tests := []struct {
		name     string
		scale    float64
		min, max int
	}{
		{name: "zero scale", scale: 0, min: 1, max: 10},
		{name: "negative scale", scale: -5, min: 1, max: 10},
		{name: "zero min", scale: 1, min: 0, max: 10},
		{name: "inverted bounds", scale: 1, min: 10, max: 5},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := NewGenerator(rng, 100, WithPareto(tt.scale, 0.3), WithSizeBounds(tt.min, tt.max)); err == nil {
				t.Fatal("want error")
			}
		})
	}
}

func TestKeyNameFixedWidth(t *testing.T) {
	tests := []struct {
		rank uint64
		want string
	}{
		{rank: 0, want: "k0000000000"},
		{rank: 7, want: "k0000000007"},
		{rank: 1234567890, want: "k1234567890"},
	}
	for _, tt := range tests {
		if got := KeyName(tt.rank); got != tt.want {
			t.Errorf("KeyName(%d) = %q, want %q", tt.rank, got, tt.want)
		}
	}
}

func TestKeyNameProperty(t *testing.T) {
	f := func(rank uint64) bool {
		k := KeyName(rank % 10000000000)
		return len(k) == DefaultKeyLen && k[0] == 'k'
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestKeyNameUniqueness(t *testing.T) {
	f := func(a, b uint64) bool {
		a %= 10000000000
		b %= 10000000000
		if a == b {
			return KeyName(a) == KeyName(b)
		}
		return KeyName(a) != KeyName(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestGeneratorStableSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	g, err := NewGenerator(rng, 1000)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[uint64]int)
	for i := 0; i < 20000; i++ {
		req := g.Next()
		if prev, ok := seen[req.Rank]; ok && prev != req.ValueSize {
			t.Fatalf("rank %d changed size %d → %d", req.Rank, prev, req.ValueSize)
		}
		seen[req.Rank] = req.ValueSize
		if req.Key != KeyName(req.Rank) {
			t.Fatalf("key %q does not match rank %d", req.Key, req.Rank)
		}
	}
}

func TestSizeForRankDeterministic(t *testing.T) {
	f := func(rank uint64) bool {
		a := SizeForRank(rank, DefaultParetoScale, DefaultParetoShape, 1, 4096)
		b := SizeForRank(rank, DefaultParetoScale, DefaultParetoShape, 1, 4096)
		return a == b && a >= 1 && a <= 4096
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestGeneralizedParetoMean(t *testing.T) {
	want := DefaultParetoScale / (1 - DefaultParetoShape) // sigma/(1-xi) ≈ 329 bytes
	if want < 300 || want > 360 {
		t.Fatalf("analytic mean %.1f outside expected ETC band", want)
	}
	sum := 0.0
	const draws = 300000
	for rank := uint64(0); rank < draws; rank++ {
		sum += float64(SizeForRank(rank, DefaultParetoScale, DefaultParetoShape, 1, 1<<20))
	}
	got := sum / draws
	if got < want*0.8 || got > want*1.2 {
		t.Fatalf("empirical mean %.1f, want within 20%% of analytic %.1f", got, want)
	}
}

func TestSizeForRankDistribution(t *testing.T) {
	// The rank-keyed deviates must follow the GPD's shape, not only its
	// mean: the median sits at sigma/xi * (2^xi - 1).
	const n = 200000
	sizes := make([]int, n)
	for rank := uint64(0); rank < n; rank++ {
		sizes[rank] = SizeForRank(rank, DefaultParetoScale, DefaultParetoShape, 1, 1<<20)
	}
	sort.Ints(sizes)
	median := float64(sizes[n/2])
	want := DefaultParetoScale / DefaultParetoShape * (math.Pow(2, DefaultParetoShape) - 1)
	if median < want*0.95 || median > want*1.05 {
		t.Fatalf("median size %.0f, want within 5%% of %.1f", median, want)
	}
}

func TestGeneratorOptions(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	g, err := NewGenerator(rng, 100,
		WithZipfS(1.5),
		WithPareto(50, 0.1),
		WithSizeBounds(16, 64),
	)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5000; i++ {
		req := g.Next()
		if req.ValueSize < 16 || req.ValueSize > 64 {
			t.Fatalf("value size %d outside configured bounds", req.ValueSize)
		}
	}
	if g.zipf.s != 1.5 {
		t.Fatalf("zipf s = %v, want 1.5", g.zipf.s)
	}
}

func TestGeneratorNextMulti(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	g, err := NewGenerator(rng, 100)
	if err != nil {
		t.Fatal(err)
	}
	batch := g.NextMulti(10)
	if len(batch) != 10 {
		t.Fatalf("batch length %d, want 10", len(batch))
	}
}

func TestGeneratorRejectsEmptyKeyspace(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := NewGenerator(rng, 0); err == nil {
		t.Fatal("want error for empty keyspace")
	}
}

func TestZipfDeterminism(t *testing.T) {
	draw := func() []uint64 {
		rng := rand.New(rand.NewSource(99))
		z, err := NewZipf(rng, 0.99, 1000)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]uint64, 100)
		for i := range out {
			out[i] = z.Next()
		}
		return out
	}
	a, b := draw(), draw()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("draw %d differs: %d vs %d (non-deterministic)", i, a[i], b[i])
		}
	}
}
