package stackdist

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The arbiter's page-move decisions read marginal differences off MimirH
// curves, so the estimator's agreement with the exact Mattson profile is a
// correctness input, not a nicety. These tests drive both profilers over
// identical seeded traces and bound the curve error everywhere inside the
// tracked window.

// traceGen produces one request stream; every generator is deterministic in
// its rand source so failures replay.
type traceGen struct {
	name string
	next func(rng *rand.Rand, i int) uint64
}

func accuracyTraces() []traceGen {
	zipf := func(rng *rand.Rand) *rand.Zipf {
		return rand.NewZipf(rng, 1.1, 1, 4000)
	}
	var z *rand.Zipf
	return []traceGen{
		{name: "uniform-small", next: func(rng *rand.Rand, i int) uint64 {
			return uint64(rng.Intn(500))
		}},
		{name: "zipf", next: func(rng *rand.Rand, i int) uint64 {
			if z == nil || i == 0 {
				z = zipf(rng)
			}
			return z.Uint64()
		}},
		{name: "hot-plus-scan", next: func(rng *rand.Rand, i int) uint64 {
			if rng.Intn(10) < 7 {
				return uint64(rng.Intn(200)) // hot set
			}
			return 1_000_000 + uint64(i) // never re-referenced
		}},
		{name: "two-phase", next: func(rng *rand.Rand, i int) uint64 {
			base := 0
			if i >= 30_000 {
				base = 10_000 // working set shifts mid-trace
			}
			return uint64(base + rng.Intn(400))
		}},
	}
}

// TestMimirHAccuracyVsExactOracle runs every trace through the exact
// Mattson profiler and MimirH sized well past each working set, then sweeps
// the hit-rate curves across capacities inside the tracked window. Below
// one bucket's width the estimator has no resolution at all — a hit in the
// hottest bucket reads as ~bucketCap/2 regardless of its true distance — so
// the sweep starts at the bucketCap floor, which is where the arbiter reads
// it (page-granularity gradients, ≥ ~1000 items). From there the bucketed
// estimate must stay within 0.12 of exact pointwise and within 0.04 on
// average — the error budget the arbiter's 0.2 relative hysteresis margin
// is chosen to absorb.
func TestMimirHAccuracyVsExactOracle(t *testing.T) {
	const ops = 60_000
	for _, tr := range accuracyTraces() {
		t.Run(tr.name, func(t *testing.T) {
			exact := NewProfiler()
			approx, err := NewMimirH(64, 256) // tracks ~16k keys, all traces fit
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(20260807))
			for i := 0; i < ops; i++ {
				k := tr.next(rng, i)
				exact.Record(fmt.Sprintf("k%d", k))
				approx.Record(k)
			}
			if exact.total != approx.total {
				t.Fatalf("totals diverged: %d vs %d", exact.total, approx.total)
			}

			ec, ac := exact.Curve(), approx.Curve()
			var sumErr, maxErr float64
			var worst int
			n := 0
			for capacity := 256; capacity <= 8192; capacity = capacity*5/4 + 1 {
				e, a := ec.HitRate(capacity), ac.HitRate(capacity)
				diff := math.Abs(e - a)
				sumErr += diff
				n++
				if diff > maxErr {
					maxErr, worst = diff, capacity
				}
			}
			if maxErr > 0.12 {
				t.Errorf("max curve error %.3f at capacity %d (bound 0.12)", maxErr, worst)
			}
			if mean := sumErr / float64(n); mean > 0.04 {
				t.Errorf("mean curve error %.4f (bound 0.04)", mean)
			}
			// The infinite-cache ceilings must agree exactly: both profilers
			// see every first reference as a cold miss while nothing ages out.
			if e, a := ec.MaxHitRate(), ac.MaxHitRate(); math.Abs(e-a) > 0.02 {
				t.Errorf("MaxHitRate diverged: exact %.4f vs mimirh %.4f", e, a)
			}
		})
	}
}

// TestMimirHSaturatesAtTrackedWindow documents the estimator's hard limit:
// reuse distances beyond the tracked population read as cold misses, so the
// curve flatlines past it. The arbiter must size Buckets × BucketCap past
// the largest allocation worth reasoning about (see ArbiterConfig).
func TestMimirHSaturatesAtTrackedWindow(t *testing.T) {
	m, err := NewMimirH(8, 16) // tracks ≤ 128 keys
	if err != nil {
		t.Fatal(err)
	}
	// Cycle 1000 keys: every reuse distance is ~1000, far past the window.
	for i := 0; i < 20_000; i++ {
		m.Record(uint64(i % 1000))
	}
	c := m.Curve()
	if hr := c.HitRate(100_000); hr > 0.05 {
		t.Fatalf("curve shows %.3f hit rate for far-out reuse the window cannot see", hr)
	}
}
