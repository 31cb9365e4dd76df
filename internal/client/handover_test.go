package client

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/hashring"
	"repro/internal/server"
)

// movingKey finds a key whose owner changes between the settled table and
// the in-flight handover table: its read plan has a fallback.
func movingKey(t *testing.T, table *hashring.Table) string {
	t.Helper()
	for i := 0; i < 100000; i++ {
		k := fmt.Sprintf("mv%05d", i)
		primary, fallback, err := table.ReadPlan(k)
		if err != nil {
			t.Fatal(err)
		}
		if fallback != "" && primary != fallback {
			return k
		}
	}
	t.Fatal("no moving key found")
	return ""
}

// TestHandoverForwardOnMiss exercises the serve-through read path: a key
// written before the handover lives only on the retiring owner; after
// BeginHandover the client reads it through the incoming owner and must
// forward the miss instead of reporting it.
func TestHandoverForwardOnMiss(t *testing.T) {
	cl, _ := testCluster(t, 4)

	settled := cl.table.Load()
	members := settled.Members()
	// Scale in: drop the last member.
	inFlight, moved, err := settled.BeginHandover(members[:len(members)-1])
	if err != nil {
		t.Fatal(err)
	}
	if moved == 0 {
		t.Fatal("no keys moving")
	}
	key := movingKey(t, inFlight)

	// Written while settled: lands on the (future) retiring owner only.
	if err := cl.Set(key, []byte("pre-handover")); err != nil {
		t.Fatal(err)
	}

	cl.OwnershipChanged(inFlight)
	v, ok, err := cl.Get(key)
	if err != nil || !ok || string(v) != "pre-handover" {
		t.Fatalf("forward-on-miss Get = %q, %v, %v", v, ok, err)
	}
	// The multi-get path forwards the same miss, next to a true one.
	got, err := cl.MultiGet([]string{"never-set", key})
	if err != nil || len(got) != 1 || string(got[key]) != "pre-handover" {
		t.Fatalf("forward-on-miss MultiGet = %v, %v", got, err)
	}

	// Writes are now dual-applied: after settle (retiring owner drops out
	// of the plan) the value must still be served.
	if err := cl.Set(key, []byte("during-handover")); err != nil {
		t.Fatal(err)
	}
	settled2, err := inFlight.Settle()
	if err != nil {
		t.Fatal(err)
	}
	cl.OwnershipChanged(settled2)
	v, ok, err = cl.Get(key)
	if err != nil || !ok || string(v) != "during-handover" {
		t.Fatalf("post-settle Get = %q, %v, %v", v, ok, err)
	}
}

// TestStaleOwnershipIgnored: announcements are version-ordered; replaying
// an older table must not regress routing.
func TestStaleOwnershipIgnored(t *testing.T) {
	cl, _ := testCluster(t, 2)
	v1 := cl.table.Load()
	members := v1.Members()
	inFlight, _, err := v1.BeginHandover(members[:1])
	if err != nil {
		t.Fatal(err)
	}
	cl.OwnershipChanged(inFlight)
	cl.OwnershipChanged(v1) // stale: must be dropped
	if got := cl.OwnershipVersion(); got != inFlight.Version() {
		t.Fatalf("version = %d, want %d", got, inFlight.Version())
	}
}

// TestLeaseGetSetThroughCluster drives the client lease ops end to end.
func TestLeaseGetSetThroughCluster(t *testing.T) {
	cl, _ := testCluster(t, 3)

	_, token, hit, err := cl.LeaseGet("lk")
	if err != nil || hit || token == 0 {
		t.Fatalf("LeaseGet miss: hit=%v token=%d err=%v", hit, token, err)
	}
	if err := cl.LeaseSet("lk", []byte("filled"), token); err != nil {
		t.Fatal(err)
	}
	v, _, hit, err := cl.LeaseGet("lk")
	if err != nil || !hit || string(v) != "filled" {
		t.Fatalf("LeaseGet hit: v=%q hit=%v err=%v", v, hit, err)
	}
	// Token replay is rejected.
	if err := cl.LeaseSet("lk2-token-replay", []byte("x"), token); !errors.Is(err, ErrLeaseRejected) {
		t.Fatalf("replayed token err = %v, want ErrLeaseRejected", err)
	}
}

// TestLeaseForwardWarmsIncomingOwner: during a handover, LeaseGet on a
// cold incoming owner forwards to the retiring owner and uses its token
// to warm the incoming side.
func TestLeaseForwardWarmsIncomingOwner(t *testing.T) {
	cl, servers := testCluster(t, 4)

	settled := cl.table.Load()
	members := settled.Members()
	inFlight, _, err := settled.BeginHandover(members[:len(members)-1])
	if err != nil {
		t.Fatal(err)
	}
	key := movingKey(t, inFlight)
	if err := cl.Set(key, []byte("warm-me")); err != nil {
		t.Fatal(err)
	}

	cl.OwnershipChanged(inFlight)
	for _, s := range servers {
		s.OwnershipChanged(inFlight)
	}
	v, token, hit, err := cl.LeaseGet(key)
	if err != nil || !hit || token != 0 || string(v) != "warm-me" {
		t.Fatalf("forwarded LeaseGet = %q token=%d hit=%v err=%v", v, token, hit, err)
	}

	// The warm fill parked on the incoming owner (gutter or cache): a
	// direct read there now hits without forwarding.
	primary, _, err := inFlight.ReadPlan(key)
	if err != nil {
		t.Fatal(err)
	}
	v2, _, hit2, err := cl.getOn(context.Background(), primary, key)
	if err != nil || !hit2 || string(v2) != "warm-me" {
		t.Fatalf("incoming owner after warm fill = %q hit=%v err=%v", v2, hit2, err)
	}
}

// TestRoutingRaceUnderChurn is the membership-change race regression: many
// goroutines hammer Get/Set/MultiGet while tables churn concurrently. Run under -race (make race) it fails on any torn routing
// state; in all modes it fails on unexpected errors.
func TestRoutingRaceUnderChurn(t *testing.T) {
	cl, _ := testCluster(t, 4)
	members := cl.Members()

	var stop atomic.Bool
	var wg sync.WaitGroup

	// Churner: walk the table through handover lifecycles as fast as
	// possible.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; !stop.Load(); i++ {
			cur := cl.table.Load()
			if !cur.Settled() {
				cl.OwnershipChanged(cur.Rollback())
				continue
			}
			var target []string
			if len(cur.Members()) == len(members) {
				target = members[:len(members)-1]
			} else {
				target = members
			}
			inFlight, _, err := cur.BeginHandover(target)
			if err != nil {
				continue
			}
			cl.OwnershipChanged(inFlight)
			if i%3 == 0 {
				// Abandon: roll back instead of settling.
				cl.OwnershipChanged(inFlight.Rollback())
				continue
			}
			settled, err := inFlight.Settle()
			if err != nil {
				continue
			}
			cl.OwnershipChanged(settled)
		}
	}()

	// Workers: reads and writes must never see an error other than a
	// dial failure... and with all nodes alive, not even that.
	const workers = 8
	errCh := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				key := fmt.Sprintf("race-%d-%d", w, i%32)
				if i%4 == 0 {
					if err := cl.Set(key, []byte("v")); err != nil {
						errCh <- fmt.Errorf("set: %w", err)
						return
					}
				} else if i%7 == 0 {
					if _, err := cl.MultiGet([]string{key, "race-shared"}); err != nil {
						errCh <- fmt.Errorf("multiget: %w", err)
						return
					}
				} else {
					if _, _, err := cl.Get(key); err != nil {
						errCh <- fmt.Errorf("get: %w", err)
						return
					}
				}
			}
		}(w)
	}

	time.Sleep(500 * time.Millisecond)
	stop.Store(true)
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
}

// hookNode is a one-connection-at-a-time memcached stand-in for the
// incoming owner: it answers set with STORED, delete with NOT_FOUND and
// get with a miss, and runs hook before each reply, so a test can act
// between the first leg of an operation and its second.
func hookNode(t *testing.T, hook func()) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer nc.Close()
				r := bufio.NewReader(nc)
				for {
					line, err := r.ReadString('\n')
					if err != nil {
						return
					}
					f := strings.Fields(line)
					if len(f) == 0 {
						return
					}
					reply := "END\r\n"
					switch f[0] {
					case "set":
						n, _ := strconv.Atoi(f[4])
						if _, err := r.Discard(n + 2); err != nil {
							return
						}
						reply = "STORED\r\n"
					case "delete":
						reply = "NOT_FOUND\r\n"
					}
					hook()
					if _, err := nc.Write([]byte(reply)); err != nil {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String()
}

// TestSecondLegMootAfterSettle is the shutdown race of a scale-in: a set,
// delete or read-fallback planned under the in-flight table reaches the
// incoming owner, and before its second leg reaches the outgoing owner the
// table settles and the outgoing owner stops. The second leg then fails to
// connect, but the settled table no longer routes the key there, so the
// operation succeeds on the incoming owner alone. A leg whose node the
// current table still routes to keeps failing the operation.
func TestSecondLegMootAfterSettle(t *testing.T) {
	c, err := cache.New(2 * cache.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	outgoing, err := server.Listen("127.0.0.1:0", c)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = outgoing.Close() })

	var cl *Cluster
	var settle atomic.Pointer[func()] // armed per operation; runs once
	incoming := hookNode(t, func() {
		if f := settle.Swap(nil); f != nil {
			(*f)()
		}
	})
	cl, err = New([]string{outgoing.Addr(), incoming})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	inFlight, _, err := cl.table.Load().BeginHandover([]string{incoming})
	if err != nil {
		t.Fatal(err)
	}
	key := movingKey(t, inFlight)
	if primary, fallback, _ := inFlight.ReadPlan(key); primary != incoming || fallback != outgoing.Addr() {
		t.Fatalf("plan for %q = (%s, %s), want (incoming, outgoing)", key, primary, fallback)
	}
	settled, err := inFlight.Settle()
	if err != nil {
		t.Fatal(err)
	}

	// The outgoing owner is up but refuses connections from here on: the
	// process a Master stops after settle.
	if err := outgoing.Close(); err != nil {
		t.Fatal(err)
	}
	cl.OwnershipChanged(inFlight)
	if err := cl.Set(key, []byte("v")); err == nil {
		t.Fatal("set whose live second leg failed reported success")
	}

	for _, op := range []struct {
		name string
		run  func() error
	}{
		{"set", func() error { return cl.Set(key, []byte("v")) }},
		{"delete", func() error { _, err := cl.Delete(key); return err }},
		{"get", func() error {
			v, hit, err := cl.Get(key)
			if err == nil && hit {
				return fmt.Errorf("hit %q on a settled miss", v)
			}
			return err
		}},
	} {
		announce := func() { cl.OwnershipChanged(settled) }
		settle.Store(&announce)
		cl.table.Store(inFlight) // replan each operation under the in-flight table
		if err := op.run(); err != nil {
			t.Errorf("%s across settle: %v", op.name, err)
		}
	}
}
