package client

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faultnet"
	"repro/internal/memproto"
	"repro/internal/server"
)

// Tests of the caller-goroutine request path: what the per-owner fan-out
// used to provide for every read must hold on the inline path too, and the
// pool must not leak connections across membership changes.

// stallServer accepts connections, reads requests and never answers. got
// receives once per request read; closed once per connection the client
// side closed.
func stallServer(t *testing.T) (addr string, got, closed <-chan struct{}) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	gotCh, closedCh := make(chan struct{}, 16), make(chan struct{}, 16) // more than any test's requests
	var wg sync.WaitGroup
	t.Cleanup(func() {
		_ = ln.Close()
		wg.Wait()
	})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer nc.Close()
				buf := make([]byte, 1024)
				for {
					_ = nc.SetReadDeadline(time.Now().Add(5 * time.Second))
					if _, err := nc.Read(buf); err != nil {
						closedCh <- struct{}{}
						return
					}
					gotCh <- struct{}{}
				}
			}()
		}
	}()
	return ln.Addr().String(), gotCh, closedCh
}

func idleConns(p *pool) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.idle)
}

// TestCancelMidExchange: cancelling the context while the reply is awaited
// closes that connection, surfaces ctx.Err(), and pools nothing.
func TestCancelMidExchange(t *testing.T) {
	addr, got, closed := stallServer(t)
	cl, err := New([]string{addr})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		<-got // the request is on the server: the client is blocked reading
		cancel()
	}()
	_, _, err = cl.GetContext(ctx, "k")
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	select {
	case <-closed:
	case <-time.After(2 * time.Second):
		t.Fatal("the cancelled exchange's connection was not closed")
	}
	p, err := cl.pool(addr)
	if err != nil {
		t.Fatal(err)
	}
	if n := idleConns(p); n != 0 {
		t.Fatalf("%d connections pooled after a cancelled exchange, want 0", n)
	}
}

// TestOpTimeoutFires: with the deadline armed once per exchange, a silent
// server still costs the op timeout and no more.
func TestOpTimeoutFires(t *testing.T) {
	addr, _, _ := stallServer(t)
	cl, err := New([]string{addr}, WithOpTimeout(50*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	start := time.Now()
	_, _, err = cl.Get("k")
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("err = %v, want a timeout", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("timed out after %v, want about 50ms", d)
	}
}

// TestReusedConnectionGetsFreshDeadline: nothing clears the deadline when
// a connection is parked, so the next checkout must re-arm it — a
// connection idle for longer than the op timeout still works.
func TestReusedConnectionGetsFreshDeadline(t *testing.T) {
	_, servers := testCluster(t, 1)
	cl, err := New([]string{servers[0].Addr()}, WithOpTimeout(100*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Set("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	time.Sleep(150 * time.Millisecond) // past the deadline the Set armed
	v, ok, err := cl.Get("k")
	if err != nil || !ok || string(v) != "v" {
		t.Fatalf("Get on an idle connection = %q, %v, %v", v, ok, err)
	}
	if total := statOf(t, servers[0], "total_connections"); total != 2 { // the client's one + this stats probe
		t.Fatalf("total_connections = %d: the idle connection was not reused", total)
	}
}

// statOf reads one numeric stat from a server over a fresh connection.
func statOf(t *testing.T, s *server.Server, name string) uint64 {
	t.Helper()
	nc, err := net.DialTimeout("tcp", s.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	_ = nc.SetDeadline(time.Now().Add(2 * time.Second))
	if _, err := nc.Write([]byte("stats\r\n")); err != nil {
		t.Fatal(err)
	}
	stats, err := memproto.NewReplyReader(nc).ReadStats()
	if err != nil {
		t.Fatal(err)
	}
	v, err := strconv.ParseUint(stats[name], 10, 64)
	if err != nil {
		t.Fatalf("stat %s = %q", name, stats[name])
	}
	return v
}

// TestHotReplicaMissRereadsOwner: a read routed to a hot-key replica that
// does not hold the value (push in flight, or evicted) falls back to the
// ring owner before reporting a miss — on Get and on MultiGet.
func TestHotReplicaMissRereadsOwner(t *testing.T) {
	cl, _ := testCluster(t, 3)
	const key = "hot-key"
	if err := cl.Set(key, []byte("at-home")); err != nil {
		t.Fatal(err)
	}
	owner, err := cl.Owner(key)
	if err != nil {
		t.Fatal(err)
	}
	var replica string
	for _, m := range cl.Members() {
		if m != owner {
			replica = m
			break
		}
	}
	// A serving set of just the (empty) replica: every read lands there.
	cl.hotMu.Lock()
	cl.hotByHome[owner] = []memproto.HotKeyTableEntry{{Key: key, Nodes: []string{replica}}}
	cl.hotMu.Unlock()
	cl.rebuildHotTable()
	if node, _, _ := cl.routeRead(cl.table.Load(), key); node != replica {
		t.Fatalf("hot key routed to %s, want the replica %s", node, replica)
	}

	v, ok, err := cl.Get(key)
	if err != nil || !ok || string(v) != "at-home" {
		t.Fatalf("Get via a cold replica = %q, %v, %v", v, ok, err)
	}
	got, err := cl.MultiGet([]string{key, "absent"})
	if err != nil || string(got[key]) != "at-home" || len(got) != 1 {
		t.Fatalf("MultiGet via a cold replica = %v, %v", got, err)
	}
}

// TestMultiGetOverlapsOwners: a multi-get spanning two owners, each slow
// to reply, takes about as long as one of them, not both.
func TestMultiGetOverlapsOwners(t *testing.T) {
	_, servers := testCluster(t, 2)
	netw := faultnet.New(1)
	netw.SetOpRule("rsp", faultnet.Rule{ThrottleBPS: 16 << 10})
	var members []string
	for _, s := range servers {
		p, err := faultnet.NewProxy(netw, "client", s.Addr(), s.Addr())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = p.Close() })
		members = append(members, p.Addr())
	}
	cl, err := New(members)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// One 2 KiB value per owner: ~125 ms of throttled reply each.
	value := bytes.Repeat([]byte("x"), 2<<10)
	keyOn := make(map[string]string)
	for i := 0; len(keyOn) < len(members); i++ {
		key := fmt.Sprintf("overlap-%d", i)
		owner, err := cl.Owner(key)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := keyOn[owner]; ok {
			continue
		}
		keyOn[owner] = key
		if err := cl.Set(key, value); err != nil {
			t.Fatal(err)
		}
	}
	timed := func(keys ...string) time.Duration {
		start := time.Now()
		got, err := cl.MultiGet(keys)
		if err != nil || len(got) != len(keys) {
			t.Fatalf("MultiGet(%v) = %d values, %v", keys, len(got), err)
		}
		return time.Since(start)
	}
	a, b := keyOn[members[0]], keyOn[members[1]]
	sum := timed(a) + timed(b)
	both := timed(a, b)
	t.Logf("one owner at a time %v, both in one call %v", sum, both)
	if both > sum*3/4 {
		t.Fatalf("two-owner multi-get took %v, the owners one after another take %v: not overlapped", both, sum)
	}
}

// TestPrunedPoolClosesReturnedConnection: a connection that is checked out
// while its node leaves the membership must be closed when it comes back,
// not parked in the orphaned pool where nothing would ever close it.
func TestPrunedPoolClosesReturnedConnection(t *testing.T) {
	cl, _ := testCluster(t, 2)
	members := cl.Members()
	victim := members[1]
	p, err := cl.pool(victim)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := p.get(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	announceSettled(t, cl, members[:1]) // prunes victim's pool mid-exchange
	p.put(conn)

	_ = conn.nc.SetReadDeadline(time.Now().Add(time.Second))
	if _, err := conn.nc.Read(make([]byte, 1)); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("read on the returned connection: %v, want it closed", err)
	}
}

// TestNoConnectionLeakUnderChurn prunes pools while requests are in
// flight (run it under -race), then closes the client: every server must
// see its connections go away.
func TestNoConnectionLeakUnderChurn(t *testing.T) {
	cl, servers := testCluster(t, 3)
	members := cl.Members()

	var stop atomic.Bool
	var gets atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				if _, _, err := cl.Get(fmt.Sprintf("churn-%d-%d", w, i%64)); err != nil {
					t.Errorf("get: %v", err)
					return
				}
				gets.Add(1)
			}
		}(w)
	}
	for i := 0; i < 100 && !t.Failed(); i++ {
		// Let traffic reach the third node again before pruning its pool.
		for seen := gets.Load(); gets.Load() < seen+32 && !t.Failed(); {
			time.Sleep(100 * time.Microsecond)
		}
		announceSettled(t, cl, members[:2])
		announceSettled(t, cl, members)
	}
	stop.Store(true)
	wg.Wait()
	cl.Close()

	for _, s := range servers {
		deadline := time.Now().Add(3 * time.Second)
		for {
			open := statOf(t, s, "curr_connections") - 1 // minus the stats probe itself
			if open == 0 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s still holds %d client connections after Close", s.Addr(), open)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
}
