// Full-stack integration: the paper's deployment on real localhost TCP —
// load generator → web tier → consistent-hashing client → cache nodes,
// misses to the simulated database — with an ElMem scale-in executed
// mid-run. This is the closest in-repo analog of the paper's testbed run.
package repro

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/cluster"
	"repro/internal/loadgen"
	"repro/internal/store"
	"repro/internal/webtier"
	"repro/internal/workload"
)

func TestFullStackScaleInUnderLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("full-stack run takes a few seconds")
	}
	box, err := cluster.StartLocal(cluster.Config{
		Nodes:      4,
		NodeMemory: 4 * cache.PageSize,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = box.Close() }()

	const keys = 20_000
	dataset, err := store.NewDataset(keys, store.WithSizeBounds(1, 128))
	if err != nil {
		t.Fatal(err)
	}
	db, err := store.NewDB(dataset, store.LatencyModel{
		Base:     200 * time.Microsecond,
		Capacity: 100_000, // the DB is not the bottleneck in this test
		Max:      time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	handler, err := webtier.New(box.Client(), db)
	if err != nil {
		t.Fatal(err)
	}

	// Warm the tier through the real request path.
	warm, err := loadgen.Run(context.Background(), loadgen.Config{
		Duration:     2 * time.Second,
		PeakRate:     400,
		KVPerRequest: 10,
		Tenants:      []loadgen.TenantSpec{{Keys: keys, Share: 1}},
		Seed:         1,
	}, loadgen.HandlerFunc(func(ks []string) (time.Duration, int, int, error) {
		res, err := handler.Handle(ks)
		return res.RT, res.Hits, res.Misses, err
	}))
	if err != nil {
		t.Fatal(err)
	}
	if warm.Sent == 0 || warm.Errors != 0 {
		t.Fatalf("warmup: sent=%d errors=%d", warm.Sent, warm.Errors)
	}

	// Drive load and scale in mid-run.
	var inFlightErrs atomic.Uint64
	done := make(chan *loadgen.Report, 1)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		report, err := loadgen.Run(ctx, loadgen.Config{
			Duration:     4 * time.Second,
			PeakRate:     300,
			KVPerRequest: 10,
			Tenants:      []loadgen.TenantSpec{{Keys: keys, Share: 1}},
			Seed:         2,
		}, loadgen.HandlerFunc(func(ks []string) (time.Duration, int, int, error) {
			res, err := handler.Handle(ks)
			if err != nil {
				inFlightErrs.Add(1)
			}
			return res.RT, res.Hits, res.Misses, err
		}))
		if err != nil {
			t.Errorf("loadgen: %v", err)
		}
		done <- report
	}()

	time.Sleep(time.Second)
	report, err := box.ScaleIn(context.Background(), 1)
	if err != nil {
		t.Fatalf("live scale-in: %v", err)
	}
	if report.ItemsMigrated == 0 {
		t.Fatal("live scale-in migrated nothing")
	}
	load := <-done

	if load.Sent == 0 {
		t.Fatal("no load during the scaling window")
	}
	// Transient connection errors during the membership flip are tolerable
	// (in-flight requests to the dying node), but they must be rare.
	if frac := float64(load.Errors) / float64(load.Sent); frac > 0.05 {
		t.Fatalf("%.1f%% of requests failed across the flip (%d/%d)",
			frac*100, load.Errors, load.Sent)
	}
	if got := len(box.Members()); got != 3 {
		t.Fatalf("members = %d, want 3", got)
	}

	// Post-scale, the hit rate over fresh traffic must be high: the hot
	// set survived the migration.
	// loadgen runs the handler from concurrent request goroutines.
	var hits, misses atomic.Int64
	probe, err := loadgen.Run(context.Background(), loadgen.Config{
		Duration:     time.Second,
		PeakRate:     300,
		KVPerRequest: 10,
		Tenants:      []loadgen.TenantSpec{{Keys: keys, Share: 1}},
		Seed:         3,
	}, loadgen.HandlerFunc(func(ks []string) (time.Duration, int, int, error) {
		res, err := handler.Handle(ks)
		hits.Add(int64(res.Hits))
		misses.Add(int64(res.Misses))
		return res.RT, res.Hits, res.Misses, err
	}))
	if err != nil {
		t.Fatal(err)
	}
	if probe.Errors != 0 {
		t.Fatalf("post-scale probe errors: %d", probe.Errors)
	}
	hitRate := float64(hits.Load()) / float64(hits.Load()+misses.Load())
	if hitRate < 0.5 {
		t.Fatalf("post-scale hit rate %.2f — migration failed to preserve the hot set", hitRate)
	}
	t.Logf("full stack: warm %d reqs, %d migrated, post-scale hit rate %.2f over %d reqs",
		warm.Sent, report.ItemsMigrated, hitRate, probe.Sent)
}

func TestFullStackScaleOutUnderLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("full-stack run takes a few seconds")
	}
	box, err := cluster.StartLocal(cluster.Config{
		Nodes:      2,
		NodeMemory: 4 * cache.PageSize,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = box.Close() }()

	dataset, err := store.NewDataset(10_000, store.WithSizeBounds(1, 128))
	if err != nil {
		t.Fatal(err)
	}
	db, err := store.NewDB(dataset, store.LatencyModel{
		Base:     200 * time.Microsecond,
		Capacity: 100_000,
		Max:      time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	handler, err := webtier.New(box.Client(), db)
	if err != nil {
		t.Fatal(err)
	}

	// Warm, then scale out, then verify the hit rate held.
	for i := 0; i < 3000; i++ {
		if _, err := handler.Handle([]string{workload.KeyName(uint64(i % 5000))}); err != nil {
			t.Fatal(err)
		}
	}
	report, err := box.ScaleOut(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if report.ItemsMigrated == 0 {
		t.Fatal("scale-out moved nothing")
	}
	hits, total := 0, 0
	for i := 0; i < 2000; i++ {
		res, err := handler.Handle([]string{workload.KeyName(uint64(i % 2000))})
		if err != nil {
			t.Fatal(err)
		}
		hits += res.Hits
		total++
	}
	if rate := float64(hits) / float64(total); rate < 0.8 {
		t.Fatalf("post-scale-out hit rate %.2f", rate)
	}
	if got := len(box.Members()); got != 3 {
		t.Fatalf("members = %d", got)
	}
}
