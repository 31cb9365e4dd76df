package client

import (
	"errors"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/clock"
)

func TestAddReplaceThroughCluster(t *testing.T) {
	cl, _ := testCluster(t, 2)
	if err := cl.Add("k", []byte("v1"), 0); err != nil {
		t.Fatal(err)
	}
	if err := cl.Add("k", []byte("v2"), 0); !errors.Is(err, ErrNotStored) {
		t.Fatalf("second add err = %v, want ErrNotStored", err)
	}
	if err := cl.Replace("k", []byte("v3"), 0); err != nil {
		t.Fatal(err)
	}
	if err := cl.Replace("missing", []byte("x"), 0); !errors.Is(err, ErrNotStored) {
		t.Fatalf("replace-missing err = %v, want ErrNotStored", err)
	}
	v, ok, err := cl.Get("k")
	if err != nil || !ok || string(v) != "v3" {
		t.Fatalf("Get = %q, %v, %v", v, ok, err)
	}
}

func TestAppendPrependThroughCluster(t *testing.T) {
	cl, _ := testCluster(t, 2)
	if err := cl.Set("k", []byte("mid")); err != nil {
		t.Fatal(err)
	}
	if err := cl.Append("k", []byte("-end")); err != nil {
		t.Fatal(err)
	}
	if err := cl.Prepend("k", []byte("start-")); err != nil {
		t.Fatal(err)
	}
	v, _, err := cl.Get("k")
	if err != nil || string(v) != "start-mid-end" {
		t.Fatalf("value = %q, %v", v, err)
	}
	if err := cl.Append("missing", []byte("x")); !errors.Is(err, ErrNotStored) {
		t.Fatalf("append-missing err = %v", err)
	}
}

func TestCASThroughCluster(t *testing.T) {
	cl, _ := testCluster(t, 2)
	if err := cl.Set("k", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	entry, ok, err := cl.GetWithCAS("k")
	if err != nil || !ok {
		t.Fatalf("GetWithCAS = %v, %v", ok, err)
	}
	if string(entry.Value) != "v1" || entry.CAS == 0 {
		t.Fatalf("entry = %+v", entry)
	}
	if err := cl.CompareAndSwap("k", []byte("v2"), 0, entry.CAS); err != nil {
		t.Fatal(err)
	}
	if err := cl.CompareAndSwap("k", []byte("v3"), 0, entry.CAS); !errors.Is(err, ErrCASConflict) {
		t.Fatalf("stale cas err = %v, want ErrCASConflict", err)
	}
	if err := cl.CompareAndSwap("missing", []byte("v"), 0, 1); !errors.Is(err, ErrNotFound) {
		t.Fatalf("cas-missing err = %v, want ErrNotFound", err)
	}
	if _, ok, err := cl.GetWithCAS("missing"); err != nil || ok {
		t.Fatalf("GetWithCAS miss = %v, %v", ok, err)
	}
}

func TestIncrDecrThroughCluster(t *testing.T) {
	cl, _ := testCluster(t, 2)
	if err := cl.Set("n", []byte("7")); err != nil {
		t.Fatal(err)
	}
	v, err := cl.Incr("n", 3)
	if err != nil || v != 10 {
		t.Fatalf("Incr = %d, %v", v, err)
	}
	v, err = cl.Decr("n", 4)
	if err != nil || v != 6 {
		t.Fatalf("Decr = %d, %v", v, err)
	}
	if _, err := cl.Incr("missing", 1); !errors.Is(err, ErrNotFound) {
		t.Fatalf("incr-missing err = %v", err)
	}
	if err := cl.Set("s", []byte("word")); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Incr("s", 1); err == nil {
		t.Fatal("incr of non-number must error")
	}
}

func TestSetTTLAndTouchThroughCluster(t *testing.T) {
	clk := clock.NewFake(time.Unix(1_700_000_000, 0), 0)
	cl, _ := testCluster(t, 2, cache.WithClock(clk.Now))
	if err := cl.SetTTL("k", []byte("v"), 1); err != nil {
		t.Fatal(err)
	}
	if err := cl.Touch("k", 3600); err != nil {
		t.Fatal(err)
	}
	clk.Advance(1200 * time.Millisecond)
	if _, ok, err := cl.Get("k"); err != nil || !ok {
		t.Fatalf("touched key expired: %v, %v", ok, err)
	}
	if err := cl.Touch("missing", 10); !errors.Is(err, ErrNotFound) {
		t.Fatalf("touch-missing err = %v", err)
	}
}

func TestSetTTLExpires(t *testing.T) {
	clk := clock.NewFake(time.Unix(1_700_000_000, 0), 0)
	cl, _ := testCluster(t, 1, cache.WithClock(clk.Now))
	if err := cl.SetTTL("k", []byte("v"), 1); err != nil {
		t.Fatal(err)
	}
	clk.Advance(1200 * time.Millisecond)
	if _, ok, err := cl.Get("k"); err != nil || ok {
		t.Fatalf("key survived its TTL: %v, %v", ok, err)
	}
}

func TestFlushAllThroughCluster(t *testing.T) {
	cl, servers := testCluster(t, 3)
	for i := 0; i < 30; i++ {
		if err := cl.Set(keyName(i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := cl.FlushAll(); err != nil {
		t.Fatal(err)
	}
	for _, s := range servers {
		if s.Cache().Len() != 0 {
			t.Fatalf("node %s still holds %d items", s.Addr(), s.Cache().Len())
		}
	}
}

func keyName(i int) string {
	return "flush-key-" + string(rune('a'+i%26)) + string(rune('0'+i/26))
}

// TestRefusalKeepsPooledConnection: a refusal — add of a resident key, cas
// with a stale token, incr or delete of a missing key, a rejected lease
// fill — is a whole reply, so the connection that carried it goes back to
// its pool instead of being closed and redialed.
func TestRefusalKeepsPooledConnection(t *testing.T) {
	cl, servers := testCluster(t, 1)
	if err := cl.Set("k", []byte("1")); err != nil {
		t.Fatal(err)
	}
	p, err := cl.pool(servers[0].Addr())
	if err != nil {
		t.Fatal(err)
	}
	pooled := func() *poolConn {
		p.mu.Lock()
		defer p.mu.Unlock()
		if len(p.idle) != 1 {
			t.Fatalf("%d idle connections, want 1", len(p.idle))
		}
		return p.idle[0]
	}
	conn := pooled()
	for _, op := range []struct {
		name string
		run  func() error
		want error
	}{
		{"add", func() error { return cl.Add("k", []byte("2"), 0) }, ErrNotStored},
		{"cas", func() error { return cl.CompareAndSwap("k", []byte("2"), 0, 1<<40) }, ErrCASConflict},
		{"incr", func() error { _, err := cl.Incr("missing", 1); return err }, ErrNotFound},
		{"delete", func() error { _, err := cl.Delete("missing"); return err }, nil},
		{"lset", func() error { return cl.LeaseSet("k", []byte("2"), 1<<40) }, ErrLeaseRejected},
	} {
		if err := op.run(); !errors.Is(err, op.want) {
			t.Fatalf("%s: err = %v, want %v", op.name, err, op.want)
		}
		if got := pooled(); got != conn {
			t.Fatalf("%s: the refusal closed the pooled connection", op.name)
		}
	}
}
