// Package workload models the KV request workload used in the ElMem paper's
// evaluation (Section V-A2): Zipf-distributed key popularity over a fixed
// dataset, Generalized Pareto value sizes matching Facebook's ETC pool, fixed
// small keys, and open-loop exponential inter-arrival times whose mean rate
// is driven by a demand trace.
//
// All randomness flows through an injected *rand.Rand so that generators are
// deterministic and reproducible in tests and benchmarks.
package workload

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strconv"
)

// Paper-reported Generalized Pareto parameters for Facebook ETC value sizes
// (Atikoglu et al., SIGMETRICS 2012, as cited in Section V-A2).
const (
	// DefaultParetoScale is the sigma parameter of the GPD value-size model.
	DefaultParetoScale = 214.476
	// DefaultParetoShape is the xi (kappa) parameter of the GPD value-size model.
	DefaultParetoShape = 0.348238
	// DefaultKeyLen matches the paper's fixed 11-byte keys.
	DefaultKeyLen = 11
	// DefaultMaxValueSize caps value sizes; the paper reports 1 byte to ~1 KB
	// dominating, with a heavy tail we clip for simulation memory sanity.
	DefaultMaxValueSize = 8192
	// DefaultMinValueSize is the smallest value the generator emits.
	DefaultMinValueSize = 1
)

// ErrEmptyKeyspace is returned when a generator is configured with no keys.
var ErrEmptyKeyspace = errors.New("workload: keyspace must contain at least one key")

// Zipf draws ranks in [0, n) with probability proportional to 1/(rank+1)^s.
//
// It differs from math/rand.Zipf in that it is cheaply re-seedable, exposes
// its parameters, and supports s <= 1 via an explicit CDF table for small n
// and rejection-inversion for large n.
type Zipf struct {
	n   uint64
	s   float64
	rng *rand.Rand

	// cdf is a precomputed cumulative table used when n is small enough that
	// O(n) setup and O(log n) sampling is cheap and exact.
	cdf []float64

	// Rejection-inversion state (Hörmann & Derflinger) used for large n.
	useRejection     bool
	hIntegralX1      float64
	hIntegralNum     float64
	sSample          float64
	oneMinusSInverse float64
}

// cdfTableLimit is the keyspace size above which Zipf switches from an exact
// CDF table to rejection-inversion sampling.
const cdfTableLimit = 1 << 20

// NewZipf creates a Zipf sampler over [0, n) with exponent s > 0.
func NewZipf(rng *rand.Rand, s float64, n uint64) (*Zipf, error) {
	if n == 0 {
		return nil, ErrEmptyKeyspace
	}
	if s <= 0 {
		return nil, fmt.Errorf("workload: zipf exponent must be positive, got %v", s)
	}
	if math.IsNaN(s) || math.IsInf(s, 0) {
		return nil, fmt.Errorf("workload: zipf exponent must be finite, got %v", s)
	}
	z := &Zipf{n: n, s: s, rng: rng}
	if n <= cdfTableLimit {
		z.buildCDF()
	} else {
		z.initRejection()
	}
	return z, nil
}

// buildCDF precomputes the exact cumulative distribution for small keyspaces.
func (z *Zipf) buildCDF() {
	cdf := make([]float64, z.n)
	sum := 0.0
	for i := uint64(0); i < z.n; i++ {
		sum += 1.0 / math.Pow(float64(i+1), z.s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	// Guard against floating-point drift: the last entry must be exactly 1.
	cdf[len(cdf)-1] = 1.0
	z.cdf = cdf
}

// initRejection sets up Hörmann–Derflinger rejection-inversion sampling,
// which supports any s > 0 (including s <= 1, unlike math/rand.Zipf).
func (z *Zipf) initRejection() {
	z.useRejection = true
	z.sSample = z.s
	z.oneMinusSInverse = 1.0 - z.s
	z.hIntegralX1 = z.hIntegral(1.5) - 1.0
	z.hIntegralNum = z.hIntegral(float64(z.n) + 0.5)
}

// hIntegral is the antiderivative H(x) of h(x)=x^-s used by
// rejection-inversion (with the standard log special case at s=1).
func (z *Zipf) hIntegral(x float64) float64 {
	logX := math.Log(x)
	return helper2(z.oneMinusSInverse*logX) * logX
}

// h is the Zipf density envelope x^-s.
func (z *Zipf) h(x float64) float64 {
	return math.Exp(-z.sSample * math.Log(x))
}

// hIntegralInverse inverts hIntegral.
func (z *Zipf) hIntegralInverse(x float64) float64 {
	t := x * z.oneMinusSInverse
	if t < -1 {
		t = -1
	}
	return math.Exp(helper1(t) * x)
}

// helper1 computes log1p(x)/x with a series fallback near zero.
func helper1(x float64) float64 {
	if math.Abs(x) > 1e-8 {
		return math.Log1p(x) / x
	}
	return 1 - x*(0.5-x*(1.0/3.0-0.25*x))
}

// helper2 computes expm1(x)/x with a series fallback near zero.
func helper2(x float64) float64 {
	if math.Abs(x) > 1e-8 {
		return math.Expm1(x) / x
	}
	return 1 + x*0.5*(1+x*(1.0/3.0)*(1+0.25*x))
}

// Next draws the next rank in [0, n), rank 0 being the most popular.
func (z *Zipf) Next() uint64 {
	if !z.useRejection {
		u := z.rng.Float64()
		lo, hi := 0, len(z.cdf)
		for lo < hi {
			mid := (lo + hi) / 2
			if z.cdf[mid] < u {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		return uint64(lo)
	}
	for {
		u := z.hIntegralNum + z.rng.Float64()*(z.hIntegralX1-z.hIntegralNum)
		x := z.hIntegralInverse(u)
		k := math.Floor(x + 0.5)
		if k < 1 {
			k = 1
		} else if k > float64(z.n) {
			k = float64(z.n)
		}
		if k-x <= z.hIntegralX1-z.hIntegralNum+1 ||
			u >= z.hIntegral(k+0.5)-z.h(k) {
			return uint64(k) - 1
		}
	}
}

// KeyName renders the canonical fixed-width key for a rank. All generated
// keys are exactly DefaultKeyLen bytes ("k" + zero-padded rank), matching the
// paper's fixed 11-byte keys.
func KeyName(rank uint64) string {
	const digits = DefaultKeyLen - 1
	s := strconv.FormatUint(rank, 10)
	if len(s) > digits {
		// Wider ranks than the fixed format allows: fall back to the raw
		// decimal form (callers with >10^10 keys accept longer keys).
		return "k" + s
	}
	buf := make([]byte, DefaultKeyLen)
	buf[0] = 'k'
	for i := 1; i <= digits-len(s); i++ {
		buf[i] = '0'
	}
	copy(buf[DefaultKeyLen-len(s):], s)
	return string(buf)
}

// SizeForRank returns the deterministic value size of a key rank under the
// GPD parameters: the inverse CDF evaluated at a uniform deviate derived
// from the rank by bit mixing. Request generators and the backing database
// both use it, so they agree on every key's size without shared state.
func SizeForRank(rank uint64, scale, shape float64, minSize, maxSize int) int {
	u := float64(mix64(rank)>>11) / float64(1<<53) // uniform in [0, 1)
	var x float64
	if shape != 0 {
		x = scale / shape * (math.Pow(1-u, -shape) - 1)
	} else {
		x = -scale * math.Log(1-u)
	}
	size := int(math.Ceil(x))
	if size < minSize {
		size = minSize
	}
	if size > maxSize {
		size = maxSize
	}
	return size
}

// mix64 is the splitmix64 finalizer, turning a rank into a well-spread
// 64-bit deviate.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Generator produces a stream of KV requests: Zipf-ranked keys with
// deterministic per-rank value sizes (via SizeForRank).
type Generator struct {
	zipf *Zipf

	scale   float64
	shape   float64
	minSize int
	maxSize int
}

// GeneratorOption configures a Generator.
type GeneratorOption interface {
	apply(*generatorOptions)
}

type generatorOptions struct {
	zipfS   float64
	scale   float64
	shape   float64
	minSize int
	maxSize int
}

type zipfSOption float64

func (o zipfSOption) apply(opts *generatorOptions) { opts.zipfS = float64(o) }

// WithZipfS sets the Zipf skew exponent (default 0.99, a common
// Memcached-workload skew).
func WithZipfS(s float64) GeneratorOption { return zipfSOption(s) }

type paretoOption struct{ scale, shape float64 }

func (o paretoOption) apply(opts *generatorOptions) {
	opts.scale = o.scale
	opts.shape = o.shape
}

// WithPareto overrides the value-size GPD parameters.
func WithPareto(scale, shape float64) GeneratorOption {
	return paretoOption{scale: scale, shape: shape}
}

type sizeBoundsOption struct{ min, max int }

func (o sizeBoundsOption) apply(opts *generatorOptions) {
	opts.minSize = o.min
	opts.maxSize = o.max
}

// WithSizeBounds clamps generated value sizes to [min, max] bytes.
func WithSizeBounds(minSize, maxSize int) GeneratorOption {
	return sizeBoundsOption{min: minSize, max: maxSize}
}

// NewGenerator creates a request generator over a keyspace of n keys.
func NewGenerator(rng *rand.Rand, n uint64, opts ...GeneratorOption) (*Generator, error) {
	options := generatorOptions{
		zipfS:   0.99,
		scale:   DefaultParetoScale,
		shape:   DefaultParetoShape,
		minSize: DefaultMinValueSize,
		maxSize: DefaultMaxValueSize,
	}
	for _, o := range opts {
		o.apply(&options)
	}
	zipf, err := NewZipf(rng, options.zipfS, n)
	if err != nil {
		return nil, err
	}
	if options.scale <= 0 {
		return nil, fmt.Errorf("workload: pareto scale must be positive, got %v", options.scale)
	}
	if options.minSize < 1 || options.maxSize < options.minSize {
		return nil, fmt.Errorf("workload: invalid size bounds [%d, %d]", options.minSize, options.maxSize)
	}
	return &Generator{
		zipf:    zipf,
		scale:   options.scale,
		shape:   options.shape,
		minSize: options.minSize,
		maxSize: options.maxSize,
	}, nil
}

// Request is one KV access.
type Request struct {
	// Rank is the popularity rank of the key (0 = hottest).
	Rank uint64
	// Key is the canonical key name.
	Key string
	// ValueSize is the size in bytes of the key's value.
	ValueSize int
}

// Next draws the next request.
func (g *Generator) Next() Request {
	rank := g.zipf.Next()
	return Request{Rank: rank, Key: KeyName(rank), ValueSize: g.SizeOf(rank)}
}

// NextMulti draws a batch of k requests, corresponding to the paper's
// multi-get of several KV pairs per web request.
func (g *Generator) NextMulti(k int) []Request {
	reqs := make([]Request, k)
	for i := range reqs {
		reqs[i] = g.Next()
	}
	return reqs
}

// SizeOf reports the value size assigned to rank; it is a pure function of
// the rank and the configured GPD parameters.
func (g *Generator) SizeOf(rank uint64) int {
	return SizeForRank(rank, g.scale, g.shape, g.minSize, g.maxSize)
}
