package workload

import (
	"math"
	"math/rand"
	"testing"
)

// TestExtremeZipfDistribution pins the realized frequency distribution at
// θ=1.2: the analytic head shares must be realized within tolerance, and
// the head must dominate far harder than at the default 0.99 skew.
func TestExtremeZipfDistribution(t *testing.T) {
	const (
		n     = 1000
		draws = 200_000
		theta = 1.2
	)
	rng := rand.New(rand.NewSource(42))
	z, err := NewZipf(rng, theta, n)
	if err != nil {
		t.Fatalf("NewZipf: %v", err)
	}
	counts := make([]uint64, n)
	for i := 0; i < draws; i++ {
		counts[z.Next()]++
	}

	// Analytic share of rank r: r^-θ / H where H = Σ k^-θ.
	var h float64
	for k := 1; k <= n; k++ {
		h += math.Pow(float64(k), -theta)
	}
	for rank := 0; rank < 4; rank++ {
		want := math.Pow(float64(rank+1), -theta) / h
		got := float64(counts[rank]) / draws
		if math.Abs(got-want) > 0.015 {
			t.Errorf("rank %d share = %.4f, want %.4f ± 0.015", rank, got, want)
		}
	}
	// At θ=1.2 over 1000 keys the top-10 must absorb well over a third of
	// all traffic — the skew regime node elasticity cannot absorb.
	var top10 uint64
	for rank := 0; rank < 10; rank++ {
		top10 += counts[rank]
	}
	if share := float64(top10) / draws; share < 0.35 {
		t.Errorf("top-10 share = %.3f, want ≥ 0.35 at θ=1.2", share)
	}
}

// TestFlashCrowdDistribution pins the crowd key's realized share inside
// and outside the window.
func TestFlashCrowdDistribution(t *testing.T) {
	const (
		n        = 1000
		fraction = 0.5
		start    = 10_000
		length   = 50_000
		total    = 80_000
		crowd    = 7
	)
	rng := rand.New(rand.NewSource(7))
	fc, err := NewFlashCrowd(rng, 0.99, n, crowd, fraction, start, length)
	if err != nil {
		t.Fatalf("NewFlashCrowd: %v", err)
	}
	var inWindow, outWindow uint64
	var inTotal, outTotal uint64
	for i := uint64(0); i < total; i++ {
		rank := fc.Next()
		if i >= start && i < start+length {
			inTotal++
			if rank == crowd {
				inWindow++
			}
		} else {
			outTotal++
			if rank == crowd {
				outWindow++
			}
		}
	}
	inShare := float64(inWindow) / float64(inTotal)
	if math.Abs(inShare-fraction) > 0.02 {
		t.Errorf("in-window crowd share = %.3f, want %.2f ± 0.02", inShare, fraction)
	}
	// Outside the window the crowd key is just rank 7 of a 0.99-Zipf:
	// a small share, nowhere near the crowd fraction.
	if outShare := float64(outWindow) / float64(outTotal); outShare > 0.05 {
		t.Errorf("out-of-window crowd share = %.3f, want < 0.05", outShare)
	}
	if fc.n != total {
		t.Errorf("drawn = %d, want %d", fc.n, total)
	}
	if fc.crowd != crowd {
		t.Errorf("crowd rank = %d, want %d", fc.crowd, crowd)
	}
}

func TestNewFlashCrowdRejectsBadParams(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := NewFlashCrowd(rng, 0.99, 100, 0, 0, 0, 0); err == nil {
		t.Errorf("fraction 0 accepted")
	}
	if _, err := NewFlashCrowd(rng, 0.99, 100, 0, 1.5, 0, 0); err == nil {
		t.Errorf("fraction 1.5 accepted")
	}
	if _, err := NewFlashCrowd(rng, 0.99, 100, 100, 0.5, 0, 0); err == nil {
		t.Errorf("out-of-keyspace crowd rank accepted")
	}
}
