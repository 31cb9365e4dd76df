package hotkey

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/workload"
)

// TestSketchTopKRecall is the sketch accuracy property test: for seeded
// Zipf streams, the SpaceSaving summary must recover at least 95% of the
// true top-K and honor its per-entry error bound (true ≤ est ≤ true + err,
// err ≤ N/capacity).
func TestSketchTopKRecall(t *testing.T) {
	const (
		draws    = 100_000
		keyspace = 5_000
		capacity = 256
		topK     = 20
	)
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		zipf, err := workload.NewZipf(rng, 1.1, keyspace)
		if err != nil {
			t.Fatalf("NewZipf: %v", err)
		}
		sk := NewSketch(capacity)
		exact := make(map[string]uint64, keyspace)
		for i := 0; i < draws; i++ {
			key := workload.KeyName(zipf.Next())
			exact[key]++
			sk.Record([]byte(key))
		}

		// True top-K by exact count (key-ascending tie break, matching Top).
		type kc struct {
			key   string
			count uint64
		}
		all := make([]kc, 0, len(exact))
		for k, c := range exact {
			all = append(all, kc{k, c})
		}
		sort.Slice(all, func(i, j int) bool {
			if all[i].count != all[j].count {
				return all[i].count > all[j].count
			}
			return all[i].key < all[j].key
		})
		truth := make(map[string]struct{}, topK)
		for _, e := range all[:topK] {
			truth[e.key] = struct{}{}
		}

		got := sk.Top(topK)
		recalled := 0
		for _, e := range got {
			if _, ok := truth[e.Key]; ok {
				recalled++
			}
		}
		if recall := float64(recalled) / float64(topK); recall < 0.95 {
			t.Errorf("seed %d: top-%d recall %.2f < 0.95 (%d/%d)", seed, topK, recall, recalled, topK)
		}

		// Error bounds on every monitored entry the sketch reports.
		maxErr := sk.Total() / capacity
		for _, e := range sk.Top(capacity) {
			truthCount := exact[e.Key]
			if e.Count < truthCount {
				t.Errorf("seed %d: key %s estimate %d below true count %d", seed, e.Key, e.Count, truthCount)
			}
			if e.Count > truthCount+e.Err {
				t.Errorf("seed %d: key %s estimate %d exceeds true+err %d+%d", seed, e.Key, e.Count, truthCount, e.Err)
			}
			if e.Err > maxErr {
				t.Errorf("seed %d: key %s err bound %d exceeds N/capacity %d", seed, e.Key, e.Err, maxErr)
			}
		}
		if sk.Total() != draws {
			t.Errorf("seed %d: total %d != %d draws", seed, sk.Total(), draws)
		}
	}
}

func TestSketchDecayHalvesWindow(t *testing.T) {
	sk := NewSketch(8)
	for i := 0; i < 10; i++ {
		sk.Record([]byte("hot"))
	}
	sk.Record([]byte("cold"))
	sk.Decay()
	if sk.Total() != 5 {
		t.Fatalf("total after decay = %d, want 5", sk.Total())
	}
	top := sk.Top(8)
	if len(top) != 1 || top[0].Key != "hot" || top[0].Count != 5 {
		t.Fatalf("after decay: %+v, want only hot=5 (cold dropped at zero)", top)
	}
}

func TestDetectorSampling(t *testing.T) {
	// The gate callers apply with their own op counter: record when
	// counter&Mask() == 0.
	d := NewDetector(16, 8)
	for i := uint64(0); i < 800; i++ {
		if i&d.Mask() == 0 {
			d.RecordSampled([]byte("k"))
		}
	}
	_, total := d.Top(1)
	if total != 100 {
		t.Fatalf("sampled total = %d, want 800/8 = 100", total)
	}
	// sampleRate < 2 records everything.
	d = NewDetector(16, 1)
	for i := uint64(0); i < 50; i++ {
		if i&d.Mask() == 0 {
			d.RecordSampled([]byte("k"))
		}
	}
	if _, total := d.Top(1); total != 50 {
		t.Fatalf("unsampled total = %d, want 50", total)
	}
}
