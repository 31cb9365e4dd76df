package workload

import (
	"fmt"
	"math/rand"
)

// FlashCrowd layers an adversarial hot spot over a base Zipf stream: for a
// configurable window of draws, a configurable fraction of requests all
// hit one key (the "crowd key"), modeling the celebrity-post / breaking-news
// pattern where one object transiently dominates the tier. Outside the
// window (and for the non-crowd fraction inside it) draws fall through to
// the base Zipf distribution.
type FlashCrowd struct {
	rng      *rand.Rand
	zipf     *Zipf
	crowd    uint64  // rank every crowd draw hits
	fraction float64 // share of in-window draws sent to the crowd key
	start    uint64  // window start, in draws
	length   uint64  // window length, in draws (0 = always on)
	n        uint64  // draws issued so far
}

// NewFlashCrowd builds a flash-crowd stream over a keyspace of n keys with
// base Zipf skew s. crowdRank is the key the crowd hits; fraction in (0,1]
// is the in-window share of draws it absorbs; start and length bound the
// window in draw counts, with length 0 meaning the crowd never ends.
func NewFlashCrowd(rng *rand.Rand, s float64, n uint64, crowdRank uint64, fraction float64, start, length uint64) (*FlashCrowd, error) {
	if fraction <= 0 || fraction > 1 {
		return nil, fmt.Errorf("workload: flash-crowd fraction %v outside (0, 1]", fraction)
	}
	if crowdRank >= n {
		return nil, fmt.Errorf("workload: crowd rank %d outside keyspace %d", crowdRank, n)
	}
	zipf, err := NewZipf(rng, s, n)
	if err != nil {
		return nil, err
	}
	return &FlashCrowd{
		rng:      rng,
		zipf:     zipf,
		crowd:    crowdRank,
		fraction: fraction,
		start:    start,
		length:   length,
	}, nil
}

// Next draws the next rank.
func (f *FlashCrowd) Next() uint64 {
	i := f.n
	f.n++
	inWindow := i >= f.start && (f.length == 0 || i < f.start+f.length)
	if inWindow && f.rng.Float64() < f.fraction {
		return f.crowd
	}
	return f.zipf.Next()
}
