// Benchmarks regenerating every table and figure of the ElMem paper's
// evaluation (Section V), one benchmark per experiment, plus the ablation
// benches DESIGN.md §5 calls out. cmd/elmem-bench prints the full series;
// these benches measure the cost of regenerating each result and assert
// nothing beyond successful execution (correctness lives in the package
// tests).
package repro

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"
	"time"

	"repro/internal/agent"
	"repro/internal/cache"
	"repro/internal/experiments"
	"repro/internal/fusecache"
	"repro/internal/sim"
	"repro/internal/stackdist"
	"repro/internal/trace"
	"repro/internal/workload"
)

// runComparisonBench replays the -fast comparison of one trace: small
// enough that one policy run completes in well under a second, large
// enough that the degradation dynamics appear.
func runComparisonBench(b *testing.B, name trace.Name, kinds []sim.Policy) {
	b.Helper()
	cfg, err := experiments.ComparisonConfig(name, true)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunComparison(cfg, kinds)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Runs) != len(kinds) {
			b.Fatalf("runs = %d", len(res.Runs))
		}
	}
}

// BenchmarkFig2PostScalingDegradation regenerates Figure 2: baseline vs
// ElMem on the ETC trace's scale-in.
func BenchmarkFig2PostScalingDegradation(b *testing.B) {
	runComparisonBench(b, trace.ETC, []sim.Policy{sim.Baseline, sim.ElMem})
}

// BenchmarkFig5TraceGeneration regenerates the five demand traces.
func BenchmarkFig5TraceGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig5(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6* regenerate the five panels of Figure 6.
func BenchmarkFig6SYS(b *testing.B) {
	runComparisonBench(b, trace.SYS, []sim.Policy{sim.Baseline, sim.ElMem})
}

func BenchmarkFig6ETC(b *testing.B) {
	runComparisonBench(b, trace.ETC, []sim.Policy{sim.Baseline, sim.ElMem})
}

func BenchmarkFig6SAP(b *testing.B) {
	runComparisonBench(b, trace.SAP, []sim.Policy{sim.Baseline, sim.ElMem})
}

func BenchmarkFig6NLANR(b *testing.B) {
	runComparisonBench(b, trace.NLANR, []sim.Policy{sim.Baseline, sim.ElMem})
}

func BenchmarkFig6Microsoft(b *testing.B) {
	runComparisonBench(b, trace.Microsoft, []sim.Policy{sim.Baseline, sim.ElMem})
}

// BenchmarkFig7NodeChoice regenerates the node-choice sweep.
func BenchmarkFig7NodeChoice(b *testing.B) {
	cfg := experiments.NodeChoiceConfig{
		Nodes:     6,
		NodePages: 2,
		Keys:      80_000,
		Accesses:  250_000,
		ZipfS:     0.99,
		Seed:      7,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiments.NodeChoice(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if res.Coldest == 0 {
			b.Fatal("empty sweep")
		}
	}
}

// BenchmarkFig8PolicyComparison regenerates the four-policy comparison.
func BenchmarkFig8PolicyComparison(b *testing.B) {
	runComparisonBench(b, trace.SYS, []sim.Policy{
		sim.Baseline, sim.Naive, sim.CacheScale, sim.ElMem,
	})
}

// BenchmarkMigrationPhases regenerates the Section V-B2 overhead breakdown
// on a live localhost-TCP cluster.
func BenchmarkMigrationPhases(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Overhead(5, 2_000)
		if err != nil {
			b.Fatal(err)
		}
		if res.ItemsMigrated == 0 {
			b.Fatal("nothing migrated")
		}
	}
}

// FuseCache complexity benches (Section IV-B): FuseCache vs the three
// comparators across the n sweep that shows the O(k·log²n) vs O(n·log k)
// separation.

func fuseCacheInput(b *testing.B, k, n int) []fusecache.List {
	b.Helper()
	rng := rand.New(rand.NewSource(3))
	lists := make([]fusecache.List, k)
	for i := range lists {
		l := make(fusecache.List, n)
		for j := range l {
			l[j] = rng.Int63()
		}
		quickSortDesc(l, 0, len(l)-1)
		lists[i] = l
	}
	return lists
}

func quickSortDesc(l fusecache.List, lo, hi int) {
	for lo < hi {
		p := l[(lo+hi)/2]
		i, j := lo, hi
		for i <= j {
			for l[i] > p {
				i++
			}
			for l[j] < p {
				j--
			}
			if i <= j {
				l[i], l[j] = l[j], l[i]
				i++
				j--
			}
		}
		if j-lo < hi-i {
			quickSortDesc(l, lo, j)
			lo = i
		} else {
			quickSortDesc(l, i, hi)
			hi = j
		}
	}
}

func benchSelect(b *testing.B, k, n int, algo func([]fusecache.List, int) (fusecache.Result, error)) {
	b.Helper()
	lists := fuseCacheInput(b, k, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := algo(lists, n); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFuseCacheK10N100k(b *testing.B)  { benchSelect(b, 10, 100_000, fusecache.TopN) }
func BenchmarkFuseCacheK10N1M(b *testing.B)    { benchSelect(b, 10, 1_000_000, fusecache.TopN) }
func BenchmarkFuseCacheK100N100k(b *testing.B) { benchSelect(b, 100, 100_000, fusecache.TopN) }

func BenchmarkFuseCacheVsHeapK10N100k(b *testing.B) {
	benchSelect(b, 10, 100_000, fusecache.SelectHeap)
}

func BenchmarkFuseCacheVsHeapK10N1M(b *testing.B) {
	benchSelect(b, 10, 1_000_000, fusecache.SelectHeap)
}

func BenchmarkFuseCacheVsKWayK10N100k(b *testing.B) {
	benchSelect(b, 10, 100_000, fusecache.SelectKWay)
}

func BenchmarkFuseCacheVsMergeSortK10N100k(b *testing.B) {
	benchSelect(b, 10, 100_000, fusecache.SelectMergeSort)
}

// BenchmarkCostModel regenerates the Section II-B cost/energy numbers.
func BenchmarkCostModel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.Cost()
		if res.PowerOverheadPercent < 40 {
			b.Fatal("cost model drifted")
		}
	}
}

// BenchmarkElasticityHeadroom regenerates the Section II-C 30–70% node-
// reduction estimate.
func BenchmarkElasticityHeadroom(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Headroom(8_000, 500, 4000)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 5 {
			b.Fatal("missing traces")
		}
	}
}

// BenchmarkStackDistanceExactVsMimir compares the exact Mattson profiler
// against the hash-keyed MIMIR approximation on the same stream (Section
// III-B substrate; ablation from DESIGN.md §5).
func BenchmarkStackDistanceExactVsMimir(b *testing.B) {
	keys := make([]string, 200_000)
	hashes := make([]uint64, len(keys))
	rng := rand.New(rand.NewSource(5))
	gen, err := workload.NewGenerator(rng, 50_000, workload.WithZipfS(0.99))
	if err != nil {
		b.Fatal(err)
	}
	for i := range keys {
		keys[i] = gen.Next().Key
		h := fnv.New64a()
		h.Write([]byte(keys[i]))
		hashes[i] = h.Sum64()
	}
	b.Run("exact", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p := stackdist.NewProfiler()
			for _, k := range keys {
				p.Record(k)
			}
		}
	})
	b.Run("mimir", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m, err := stackdist.NewMimirH(128, 64)
			if err != nil {
				b.Fatal(err)
			}
			for _, h := range hashes {
				m.Record(h)
			}
		}
	})
}

// BenchmarkMetadataVsFullTransfer measures why phase 1 ships only keys and
// timestamps: the metadata of a slab is far smaller than its KV payload
// (Section III-D1; ablation from DESIGN.md §5). Reported as bytes moved
// per item for each strategy.
func BenchmarkMetadataVsFullTransfer(b *testing.B) {
	c, err := cache.New(32 * cache.PageSize)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	const items = 10_000
	for i := 0; i < items; i++ {
		value := make([]byte, rng.Intn(900)+100)
		if err := c.Set(workload.KeyName(uint64(i)), value); err != nil {
			b.Fatal(err)
		}
	}
	classes := c.PopulatedClasses()

	b.Run("metadata-only", func(b *testing.B) {
		var bytesMoved int64
		for i := 0; i < b.N; i++ {
			bytesMoved = 0
			for _, id := range classes {
				metas, err := c.DumpClass(id, nil)
				if err != nil {
					b.Fatal(err)
				}
				for _, m := range metas {
					bytesMoved += int64(len(m.Key)) + 10 // key + timestamp
				}
			}
		}
		b.ReportMetric(float64(bytesMoved)/items, "bytes/item")
	})
	b.Run("full-values", func(b *testing.B) {
		var bytesMoved int64
		for i := 0; i < b.N; i++ {
			bytesMoved = 0
			for _, id := range classes {
				_, err := c.FetchTopStream(id, items, nil, 512, 1<<20, func(sb cache.StreamBatch) error {
					for _, kv := range sb.Pairs {
						bytesMoved += int64(len(kv.Key)) + int64(len(kv.Value)) + 10
					}
					return nil
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		}
		b.ReportMetric(float64(bytesMoved)/items, "bytes/item")
	})
}

// BenchmarkBatchImportVsSet compares the paper's custom batch import
// against the plain set path for writing migrated data (Section III-D3;
// ablation from DESIGN.md §5).
func BenchmarkBatchImportVsSet(b *testing.B) {
	const items = 20_000
	makePairs := func() []cache.KV {
		rng := rand.New(rand.NewSource(3))
		base := time.Unix(1_800_000_000, 0)
		pairs := make([]cache.KV, items)
		for i := range pairs {
			pairs[i] = cache.KV{
				Key:        workload.KeyName(uint64(i)),
				Value:      make([]byte, rng.Intn(100)+20),
				LastAccess: base.Add(time.Duration(items-i) * time.Microsecond),
			}
		}
		return pairs
	}
	pairs := makePairs()

	b.Run("batch-import", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c, err := cache.New(16 * cache.PageSize)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := c.BatchImport(pairs, true); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("plain-set", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c, err := cache.New(16 * cache.PageSize)
			if err != nil {
				b.Fatal(err)
			}
			for _, p := range pairs {
				if err := c.Set(p.Key, p.Value); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkMigrationEndToEnd measures the full in-process three-phase
// migration as item volume scales.
func BenchmarkMigrationEndToEnd(b *testing.B) {
	for _, itemsPerNode := range []int{1_000, 10_000} {
		b.Run(fmt.Sprintf("items=%d", itemsPerNode), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				reg := agent.NewRegistry()
				var members []string
				for n := 0; n < 4; n++ {
					name := fmt.Sprintf("node-%d", n)
					cc, err := cache.New(8 * cache.PageSize)
					if err != nil {
						b.Fatal(err)
					}
					a, err := agent.New(name, cc, reg)
					if err != nil {
						b.Fatal(err)
					}
					reg.Register(a)
					members = append(members, name)
				}
				for n, name := range members {
					a, _ := reg.Get(name)
					for j := 0; j < itemsPerNode; j++ {
						key := fmt.Sprintf("n%d-key-%06d", n, j)
						if err := a.Cache().Set(key, []byte("value")); err != nil {
							b.Fatal(err)
						}
					}
				}
				b.StartTimer()

				retiring := members[0]
				retained := members[1:]
				src, _ := reg.Get(retiring)
				if err := src.SendMetadata(context.Background(), 1, retained); err != nil {
					b.Fatal(err)
				}
				for _, tgt := range retained {
					a, _ := reg.Get(tgt)
					takes, err := a.ComputeTakes(context.Background(), 1)
					if err != nil {
						continue
					}
					if _, err := src.SendData(context.Background(), 1, tgt, takes[retiring]); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkAutoscaleClosedLoop exercises the Eq. (1) + stack-distance
// decision loop end to end.
func BenchmarkAutoscaleClosedLoop(b *testing.B) {
	tr, err := trace.Generate(trace.SYS, trace.Options{})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		prof := stackdist.NewProfiler()
		rng := rand.New(rand.NewSource(int64(i)))
		gen, err := workload.NewGenerator(rng, 50_000, workload.WithZipfS(0.99))
		if err != nil {
			b.Fatal(err)
		}
		for j := 0; j < 100_000; j++ {
			prof.Record(gen.Next().Key)
		}
		curve := prof.Curve()
		for at := time.Duration(0); at < tr.Duration(); at += time.Minute {
			r := tr.RateAt(at) * 4000
			pMin := 1 - 500/r
			if pMin <= 0 {
				continue
			}
			_, _ = curve.ItemsForHitRate(pMin)
		}
	}
}
