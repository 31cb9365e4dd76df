package client

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/server"
)

// testCluster spins up n real TCP nodes and a client over them.
func testCluster(t *testing.T, n int, opts ...cache.Option) (*Cluster, []*server.Server) {
	t.Helper()
	servers := make([]*server.Server, n)
	members := make([]string, n)
	for i := 0; i < n; i++ {
		c, err := cache.New(2*cache.PageSize, opts...)
		if err != nil {
			t.Fatal(err)
		}
		s, err := server.Listen("127.0.0.1:0", c)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = s.Close() })
		servers[i] = s
		members[i] = s.Addr()
	}
	cl, err := New(members)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	return cl, servers
}

// announceSettled walks the client's table through a handover toward
// members — BeginHandover, Settle — and announces the settled table, as a
// Master's last announcement of an action would.
func announceSettled(t *testing.T, cl *Cluster, members []string) {
	t.Helper()
	inFlight, _, err := cl.table.Load().BeginHandover(members)
	if err != nil {
		t.Fatal(err)
	}
	settled, err := inFlight.Settle()
	if err != nil {
		t.Fatal(err)
	}
	cl.OwnershipChanged(settled)
}

func TestSetGetRoundTrip(t *testing.T) {
	cl, _ := testCluster(t, 3)
	if err := cl.Set("hello", []byte("world")); err != nil {
		t.Fatal(err)
	}
	v, ok, err := cl.Get("hello")
	if err != nil || !ok {
		t.Fatalf("Get = %v, %v, %v", v, ok, err)
	}
	if !bytes.Equal(v, []byte("world")) {
		t.Fatalf("value = %q", v)
	}
}

func TestGetMiss(t *testing.T) {
	cl, _ := testCluster(t, 2)
	_, ok, err := cl.Get("missing")
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("miss reported as hit")
	}
}

func TestDelete(t *testing.T) {
	cl, _ := testCluster(t, 2)
	if err := cl.Set("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	deleted, err := cl.Delete("k")
	if err != nil || !deleted {
		t.Fatalf("Delete = %v, %v", deleted, err)
	}
	deleted, err = cl.Delete("k")
	if err != nil || deleted {
		t.Fatalf("second Delete = %v, %v", deleted, err)
	}
}

func TestMultiGetFansOutAcrossNodes(t *testing.T) {
	cl, servers := testCluster(t, 4)
	keys := make([]string, 200)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%04d", i)
		if err := cl.Set(keys[i], []byte(fmt.Sprintf("val-%04d", i))); err != nil {
			t.Fatal(err)
		}
	}
	values, err := cl.MultiGet(keys)
	if err != nil {
		t.Fatal(err)
	}
	if len(values) != len(keys) {
		t.Fatalf("MultiGet returned %d values, want %d", len(values), len(keys))
	}
	for i, k := range keys {
		if string(values[k]) != fmt.Sprintf("val-%04d", i) {
			t.Fatalf("value for %s = %q", k, values[k])
		}
	}
	// The data must actually be spread across several nodes.
	populated := 0
	for _, s := range servers {
		if s.Cache().Len() > 0 {
			populated++
		}
	}
	if populated < 3 {
		t.Fatalf("only %d of 4 nodes hold data", populated)
	}
}

func TestMultiGetEmpty(t *testing.T) {
	cl, _ := testCluster(t, 1)
	values, err := cl.MultiGet(nil)
	if err != nil || values != nil {
		t.Fatalf("MultiGet(nil) = %v, %v", values, err)
	}
}

func TestKeysRouteToOwner(t *testing.T) {
	cl, servers := testCluster(t, 3)
	byAddr := make(map[string]*server.Server)
	for _, s := range servers {
		byAddr[s.Addr()] = s
	}
	for i := 0; i < 100; i++ {
		key := fmt.Sprintf("route-%03d", i)
		if err := cl.Set(key, []byte("v")); err != nil {
			t.Fatal(err)
		}
		owner, err := cl.Owner(key)
		if err != nil {
			t.Fatal(err)
		}
		if !byAddr[owner].Cache().Contains(key) {
			t.Fatalf("key %s not on its owner %s", key, owner)
		}
	}
}

func TestOwnershipChangedRelocatesRouting(t *testing.T) {
	cl, servers := testCluster(t, 3)
	// Drop one node from the membership: no key may route to it anymore.
	removed := servers[0].Addr()
	var kept []string
	for _, s := range servers[1:] {
		kept = append(kept, s.Addr())
	}
	announceSettled(t, cl, kept)
	if len(cl.Members()) != 2 {
		t.Fatalf("members = %v", cl.Members())
	}
	for i := 0; i < 200; i++ {
		owner, err := cl.Owner(fmt.Sprintf("key-%03d", i))
		if err != nil {
			t.Fatal(err)
		}
		if owner == removed {
			t.Fatalf("key routed to removed member %s", removed)
		}
	}
	// Ops still work against the shrunken cluster.
	if err := cl.Set("after", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := cl.Get("after"); err != nil || !ok {
		t.Fatalf("Get after membership change = %v, %v", ok, err)
	}
}

func TestStatsAll(t *testing.T) {
	cl, _ := testCluster(t, 2)
	if err := cl.Set("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	stats, err := cl.StatsAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 2 {
		t.Fatalf("stats for %d nodes, want 2", len(stats))
	}
	totalItems := 0
	for _, st := range stats {
		var items int
		if _, err := fmt.Sscanf(st["curr_items"], "%d", &items); err != nil {
			t.Fatal(err)
		}
		totalItems += items
	}
	if totalItems != 1 {
		t.Fatalf("cluster holds %d items, want 1", totalItems)
	}
}

func TestClosedClusterErrors(t *testing.T) {
	cl, _ := testCluster(t, 1)
	cl.Close()
	if _, _, err := cl.Get("k"); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
	cl.Close() // idempotent
}

func TestEmptyMembership(t *testing.T) {
	cl, err := New(nil)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, _, err := cl.Get("k"); !errors.Is(err, ErrNoMembers) {
		t.Fatalf("err = %v, want ErrNoMembers", err)
	}
}

func TestDialFailure(t *testing.T) {
	// A member address nothing listens on.
	cl, err := New([]string{"127.0.0.1:1"})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Set("k", []byte("v")); err == nil {
		t.Fatal("want dial error")
	}
}

func TestConcurrentClients(t *testing.T) {
	cl, _ := testCluster(t, 3)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				key := fmt.Sprintf("c%d-k%d", g, i)
				if err := cl.Set(key, []byte("v")); err != nil {
					t.Errorf("Set: %v", err)
					return
				}
				if _, ok, err := cl.Get(key); err != nil || !ok {
					t.Errorf("Get(%s) = %v, %v", key, ok, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestLargeValueRoundTrip(t *testing.T) {
	cl, _ := testCluster(t, 2)
	big := bytes.Repeat([]byte{0xAB}, 512<<10)
	if err := cl.Set("big", big); err != nil {
		t.Fatal(err)
	}
	v, ok, err := cl.Get("big")
	if err != nil || !ok {
		t.Fatalf("Get big = %v, %v", ok, err)
	}
	if !bytes.Equal(v, big) {
		t.Fatal("large value corrupted in transit")
	}
}

func TestClusterOptions(t *testing.T) {
	cl, err := New([]string{"127.0.0.1:1"},
		WithDialTimeout(time.Second),
		WithOpTimeout(2*time.Second),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if cl.dialTimeout != time.Second || cl.opTimeout != 2*time.Second {
		t.Fatalf("timeouts = %v/%v", cl.dialTimeout, cl.opTimeout)
	}
}

func TestPoolClampsMaxIdle(t *testing.T) {
	p := newPool("addr", 0)
	if p.maxIdle != 1 {
		t.Fatalf("maxIdle = %d, want clamp to 1", p.maxIdle)
	}
}
