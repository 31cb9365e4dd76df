package cluster

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/cache"
	"repro/internal/hotkey"
)

func startTest(t *testing.T, nodes int) *Cluster {
	t.Helper()
	c, err := StartLocal(Config{Nodes: nodes, NodeMemory: 4 * cache.PageSize})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c
}

func TestStartLocalDefaults(t *testing.T) {
	c, err := StartLocal(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	if got := len(c.Members()); got != 3 {
		t.Fatalf("default members = %d, want 3", got)
	}
}

func TestSetGetThroughBox(t *testing.T) {
	c := startTest(t, 3)
	cl := c.Client()
	for i := 0; i < 100; i++ {
		if err := cl.Set(fmt.Sprintf("key-%03d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.TotalItems(); got != 100 {
		t.Fatalf("TotalItems = %d, want 100", got)
	}
	v, ok, err := cl.Get("key-042")
	if err != nil || !ok || string(v) != "v" {
		t.Fatalf("Get = %q, %v, %v", v, ok, err)
	}
}

func TestScaleInPreservesDataAndFlipsClient(t *testing.T) {
	c := startTest(t, 4)
	cl := c.Client()
	const keys = 500
	for i := 0; i < keys; i++ {
		if err := cl.Set(fmt.Sprintf("key-%04d", i), []byte("value")); err != nil {
			t.Fatal(err)
		}
	}
	report, err := c.ScaleIn(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if report.ItemsMigrated == 0 {
		t.Fatal("nothing migrated")
	}
	if got := len(c.Members()); got != 3 {
		t.Fatalf("members = %d, want 3", got)
	}
	if got := len(cl.Members()); got != 3 {
		t.Fatalf("client members = %d, want 3", got)
	}
	// Every key still served through the client — zero cold misses.
	for i := 0; i < keys; i++ {
		key := fmt.Sprintf("key-%04d", i)
		if _, ok, err := cl.Get(key); err != nil || !ok {
			t.Fatalf("key %s lost after scale-in: %v, %v", key, ok, err)
		}
	}
	// The retired node is gone: its cache is no longer reachable.
	if _, err := c.Node(report.Retiring[0]); err == nil {
		t.Fatal("retired node still tracked")
	}
}

func TestScaleOutAddsServingNode(t *testing.T) {
	c := startTest(t, 2)
	cl := c.Client()
	const keys = 300
	for i := 0; i < keys; i++ {
		if err := cl.Set(fmt.Sprintf("key-%04d", i), []byte("value")); err != nil {
			t.Fatal(err)
		}
	}
	report, err := c.ScaleOut(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Added) != 1 || report.ItemsMigrated == 0 {
		t.Fatalf("report = %+v", report)
	}
	if got := len(c.Members()); got != 3 {
		t.Fatalf("members = %d, want 3", got)
	}
	for i := 0; i < keys; i++ {
		key := fmt.Sprintf("key-%04d", i)
		if _, ok, err := cl.Get(key); err != nil || !ok {
			t.Fatalf("key %s lost after scale-out: %v, %v", key, ok, err)
		}
	}
	newCache, err := c.Node(report.Added[0])
	if err != nil {
		t.Fatal(err)
	}
	if newCache.Len() == 0 {
		t.Fatal("new node received nothing")
	}
}

func TestScaleRoundTrip(t *testing.T) {
	c := startTest(t, 3)
	cl := c.Client()
	for i := 0; i < 200; i++ {
		if err := cl.Set(fmt.Sprintf("key-%04d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.ScaleIn(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ScaleOut(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	if got := len(c.Members()); got != 3 {
		t.Fatalf("members = %d after round trip", got)
	}
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("key-%04d", i)
		if _, ok, err := cl.Get(key); err != nil || !ok {
			t.Fatalf("key %s lost in round trip", key)
		}
	}
}

func TestClosedClusterRejectsOps(t *testing.T) {
	c := startTest(t, 2)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ScaleIn(context.Background(), 1); err != ErrClosed {
		t.Fatalf("ScaleIn on closed = %v, want ErrClosed", err)
	}
	if _, err := c.ScaleOut(context.Background(), 1); err != ErrClosed {
		t.Fatalf("ScaleOut on closed = %v, want ErrClosed", err)
	}
	if err := c.Close(); err != nil {
		t.Fatal("Close not idempotent")
	}
}

func TestScaleOutValidation(t *testing.T) {
	c := startTest(t, 2)
	if _, err := c.ScaleOut(context.Background(), 0); err == nil {
		t.Fatal("ScaleOut(0) succeeded")
	}
}

func TestNodeLookup(t *testing.T) {
	c := startTest(t, 2)
	members := c.Members()
	if _, err := c.Node(members[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Node("ghost"); err == nil {
		t.Fatal("ghost node found")
	}
}

// scaleCycles runs n ScaleIn(1) → ScaleOut(1) cycles with a write before
// each, calling afterEach (when non-nil) once the membership is whole again.
func scaleCycles(t *testing.T, c *Cluster, n int, afterEach func()) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := c.Client().Set(fmt.Sprintf("key-%d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
		if _, err := c.ScaleIn(context.Background(), 1); err != nil {
			t.Fatal(err)
		}
		if _, err := c.ScaleOut(context.Background(), 1); err != nil {
			t.Fatal(err)
		}
		if afterEach != nil {
			afterEach()
		}
	}
}

// TestRetiredNodeIsUnsubscribed: listener lifetime is node lifetime. After
// five in→out cycles the Master holds exactly one server and one agent
// listener per live node — and one hot-key replicator with hot keys on —
// plus the client; not also those of the five retired nodes, which it
// would pin and keep announcing to.
func TestRetiredNodeIsUnsubscribed(t *testing.T) {
	for _, hot := range []bool{false, true} {
		cfg := Config{Nodes: 3, NodeMemory: 4 * cache.PageSize}
		perNode := 2
		if hot {
			cfg.HotKeys = &hotkey.Config{}
			perNode = 3
		}
		c, err := StartLocal(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = c.Close() })
		scaleCycles(t, c, 5, nil)
		live := len(c.Members())
		if got, want := c.master.ListenerCounts(), perNode*live+1; got != want {
			t.Fatalf("hot keys %v: Master holds %d listeners for %d live nodes, want %d", hot, got, live, want)
		}
	}
}
