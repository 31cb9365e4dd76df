package core

// Migration-latency benchmark for the concurrent pipeline: k retiring × m
// retained nodes over the in-process transport with injected per-RPC
// latency, comparing sequential orchestration (WithWorkerLimit(1), the
// pre-refactor behaviour) against the concurrent default. The injected
// delay stands in for the network round trips the paper's testbed pays per
// ssh/RPC exchange; with it, sequential migration time grows linearly in
// the number of per-phase operations while concurrent time is bounded by
// the slowest single operation per phase.

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/agent"
	"repro/internal/cache"
	"repro/internal/hashring"
)

// delayDirectory injects a fixed latency in front of every agent operation,
// simulating per-RPC network cost on the in-process transport.
type delayDirectory struct {
	inner Directory
	delay time.Duration
}

func (d *delayDirectory) Agent(node string) (MasterAgent, error) {
	inner, err := d.inner.Agent(node)
	if err != nil {
		return nil, err
	}
	return &delayAgent{inner: inner, delay: d.delay}, nil
}

type delayAgent struct {
	inner MasterAgent
	delay time.Duration
}

func (a *delayAgent) pause(ctx context.Context) error {
	timer := time.NewTimer(a.delay)
	defer timer.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-timer.C:
		return nil
	}
}

func (a *delayAgent) Node() string { return a.inner.Node() }

func (a *delayAgent) Score(ctx context.Context) agent.ScoreReport {
	_ = a.pause(ctx)
	return a.inner.Score(ctx)
}

func (a *delayAgent) SendMetadata(ctx context.Context, retained []string) error {
	if err := a.pause(ctx); err != nil {
		return err
	}
	return a.inner.SendMetadata(ctx, retained)
}

func (a *delayAgent) ComputeTakes(ctx context.Context) (agent.Takes, error) {
	if err := a.pause(ctx); err != nil {
		return nil, err
	}
	return a.inner.ComputeTakes(ctx)
}

func (a *delayAgent) SendData(ctx context.Context, target string, takes map[int]int, retained []string) (agent.SendStats, error) {
	if err := a.pause(ctx); err != nil {
		return agent.SendStats{}, err
	}
	return a.inner.SendData(ctx, target, takes, retained)
}

func (a *delayAgent) Release(ctx context.Context, members []string) (int, error) {
	if err := a.pause(ctx); err != nil {
		return 0, err
	}
	return a.inner.Release(ctx, members)
}

// buildMigrationTier assembles nodes+keys on the in-process transport for
// one destructive migration run.
func buildMigrationTier(tb testing.TB, nodes, keys int) (*agent.Registry, []string) {
	tb.Helper()
	reg := agent.NewRegistry()
	members := names(nodes)
	clk := newTestClock()
	for _, name := range members {
		cc, err := cache.New(2*cache.PageSize, cache.WithClock(clk.Now))
		if err != nil {
			tb.Fatal(err)
		}
		a, err := agent.New(name, cc, reg)
		if err != nil {
			tb.Fatal(err)
		}
		reg.Register(a)
	}
	ring, err := hashring.New(members)
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < keys; i++ {
		key := fmt.Sprintf("key-%06d", i)
		owner, err := ring.Get(key)
		if err != nil {
			tb.Fatal(err)
		}
		a, err := reg.Get(owner)
		if err != nil {
			tb.Fatal(err)
		}
		if err := a.Cache().Set(key, []byte("value")); err != nil {
			tb.Fatal(err)
		}
	}
	return reg, members
}

// runTimedScaleIn builds a fresh tier and retires k nodes under the given
// worker limit, returning the migration wall time.
func runTimedScaleIn(tb testing.TB, nodes, retire, keys int, rpcDelay time.Duration, workers int) time.Duration {
	tb.Helper()
	reg, members := buildMigrationTier(tb, nodes, keys)
	dir := &delayDirectory{inner: RegistryDirectory{Registry: reg}, delay: rpcDelay}
	m, err := NewMaster(dir, members, WithWorkerLimit(workers))
	if err != nil {
		tb.Fatal(err)
	}
	retiring := members[:retire]
	t0 := time.Now()
	report, err := m.ScaleInNodes(context.Background(), retiring)
	elapsed := time.Since(t0)
	if err != nil {
		tb.Fatal(err)
	}
	if report.ItemsMigrated == 0 {
		tb.Fatal("benchmark migration moved nothing")
	}
	return elapsed
}

func BenchmarkMigrationOrchestration(b *testing.B) {
	const (
		nodes    = 6
		retire   = 3
		keys     = 1200
		rpcDelay = 2 * time.Millisecond
	)
	for _, bc := range []struct {
		name    string
		workers int
	}{
		{"sequential", 1},
		{"concurrent", DefaultWorkerLimit},
	} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				d := runTimedScaleIn(b, nodes, retire, keys, rpcDelay, bc.workers)
				b.ReportMetric(float64(d.Microseconds()), "µs/migration")
			}
		})
	}
}

// TestConcurrentOrchestrationBeatsSequential is the acceptance check for
// the pipeline fan-out: with k=2 retiring nodes and a 10ms injected RPC
// latency, the concurrent pipeline must finish well under the sequential
// one, which pays the latency once per operation. The 10ms delay dwarfs
// scheduling noise, so a 1.5× margin is safe even on loaded CI machines.
func TestConcurrentOrchestrationBeatsSequential(t *testing.T) {
	const (
		nodes    = 4
		retire   = 2
		keys     = 800
		rpcDelay = 10 * time.Millisecond
	)
	sequential := runTimedScaleIn(t, nodes, retire, keys, rpcDelay, 1)
	concurrent := runTimedScaleIn(t, nodes, retire, keys, rpcDelay, DefaultWorkerLimit)
	t.Logf("sequential=%v concurrent=%v", sequential, concurrent)
	if concurrent*3/2 >= sequential {
		t.Fatalf("concurrent migration (%v) not clearly faster than sequential (%v)", concurrent, sequential)
	}
}
