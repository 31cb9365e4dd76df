package server

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/clock"
)

func TestAddReplaceOverTCP(t *testing.T) {
	s := newTestServer(t)
	rc := dialRaw(t, s.Addr())

	rc.send(t, "add k 0 0 2\r\nv1\r\n")
	if line, _ := rc.reply.ReadSimple(); line != "STORED" {
		t.Fatalf("add reply = %q", line)
	}
	rc.send(t, "add k 0 0 2\r\nv2\r\n")
	if line, _ := rc.reply.ReadSimple(); line != "NOT_STORED" {
		t.Fatalf("second add reply = %q", line)
	}
	rc.send(t, "replace k 0 0 2\r\nv3\r\n")
	if line, _ := rc.reply.ReadSimple(); line != "STORED" {
		t.Fatalf("replace reply = %q", line)
	}
	rc.send(t, "replace missing 0 0 1\r\nx\r\n")
	if line, _ := rc.reply.ReadSimple(); line != "NOT_STORED" {
		t.Fatalf("replace-missing reply = %q", line)
	}
	rc.send(t, "get k\r\n")
	values, err := rc.reply.ReadValues()
	if err != nil || string(values["k"]) != "v3" {
		t.Fatalf("final value = %q, %v", values["k"], err)
	}
}

func TestAppendPrependOverTCP(t *testing.T) {
	s := newTestServer(t)
	rc := dialRaw(t, s.Addr())
	rc.send(t, "set k 0 0 3\r\nmid\r\n")
	if _, err := rc.reply.ReadSimple(); err != nil {
		t.Fatal(err)
	}
	rc.send(t, "append k 0 0 4\r\n-end\r\n")
	if line, _ := rc.reply.ReadSimple(); line != "STORED" {
		t.Fatalf("append reply = %q", line)
	}
	rc.send(t, "prepend k 0 0 6\r\nstart-\r\n")
	if line, _ := rc.reply.ReadSimple(); line != "STORED" {
		t.Fatalf("prepend reply = %q", line)
	}
	rc.send(t, "get k\r\n")
	values, err := rc.reply.ReadValues()
	if err != nil || string(values["k"]) != "start-mid-end" {
		t.Fatalf("value = %q, %v", values["k"], err)
	}
	rc.send(t, "append missing 0 0 1\r\nx\r\n")
	if line, _ := rc.reply.ReadSimple(); line != "NOT_STORED" {
		t.Fatalf("append-missing reply = %q", line)
	}
}

func TestGetsAndCasOverTCP(t *testing.T) {
	s := newTestServer(t)
	rc := dialRaw(t, s.Addr())
	rc.send(t, "set k 0 0 2\r\nv1\r\n")
	if _, err := rc.reply.ReadSimple(); err != nil {
		t.Fatal(err)
	}
	rc.send(t, "gets k\r\n")
	values, err := rc.reply.ReadValuesCAS()
	if err != nil {
		t.Fatal(err)
	}
	entry, ok := values["k"]
	if !ok || entry.CAS == 0 {
		t.Fatalf("gets = %+v", values)
	}

	rc.send(t, fmt.Sprintf("cas k 0 0 2 %d\r\nv2\r\n", entry.CAS))
	if line, _ := rc.reply.ReadSimple(); line != "STORED" {
		t.Fatalf("cas reply = %q", line)
	}
	// Stale token now.
	rc.send(t, fmt.Sprintf("cas k 0 0 2 %d\r\nv3\r\n", entry.CAS))
	if line, _ := rc.reply.ReadSimple(); line != "EXISTS" {
		t.Fatalf("stale cas reply = %q", line)
	}
	rc.send(t, "cas missing 0 0 1 5\r\nx\r\n")
	if line, _ := rc.reply.ReadSimple(); line != "NOT_FOUND" {
		t.Fatalf("cas-missing reply = %q", line)
	}
}

func TestIncrDecrOverTCP(t *testing.T) {
	s := newTestServer(t)
	rc := dialRaw(t, s.Addr())
	rc.send(t, "set n 0 0 2\r\n10\r\n")
	if _, err := rc.reply.ReadSimple(); err != nil {
		t.Fatal(err)
	}
	rc.send(t, "incr n 5\r\n")
	if line, _ := rc.reply.ReadSimple(); line != "15" {
		t.Fatalf("incr reply = %q", line)
	}
	rc.send(t, "decr n 100\r\n")
	if line, _ := rc.reply.ReadSimple(); line != "0" {
		t.Fatalf("decr reply = %q", line)
	}
	rc.send(t, "incr missing 1\r\n")
	if line, _ := rc.reply.ReadSimple(); line != "NOT_FOUND" {
		t.Fatalf("incr-missing reply = %q", line)
	}
	rc.send(t, "set s 0 0 3\r\nabc\r\n")
	if _, err := rc.reply.ReadSimple(); err != nil {
		t.Fatal(err)
	}
	rc.send(t, "incr s 1\r\n")
	if _, err := rc.reply.ReadSimple(); err == nil {
		t.Fatal("incr of non-number must return CLIENT_ERROR")
	}
}

func TestTTLExpiryOverTCP(t *testing.T) {
	clk := clock.NewFake(time.Unix(1_700_000_000, 0), 0)
	s := newTestServer(t, cache.WithClock(clk.Now))
	rc := dialRaw(t, s.Addr())
	// 1-second relative expiry.
	rc.send(t, "set k 0 1 2\r\nvv\r\n")
	if line, _ := rc.reply.ReadSimple(); line != "STORED" {
		t.Fatalf("set reply = %q", line)
	}
	rc.send(t, "get k\r\n")
	values, err := rc.reply.ReadValues()
	if err != nil || len(values) != 1 {
		t.Fatalf("pre-expiry get = %v, %v", values, err)
	}
	clk.Advance(1200 * time.Millisecond)
	rc.send(t, "get k\r\n")
	values, err = rc.reply.ReadValues()
	if err != nil {
		t.Fatal(err)
	}
	if len(values) != 0 {
		t.Fatalf("expired key still served: %v", values)
	}
	// Stats expose the reclaim.
	rc.send(t, "stats\r\n")
	stats, err := rc.reply.ReadStats()
	if err != nil {
		t.Fatal(err)
	}
	if stats["expired_unfetched"] != "1" {
		t.Fatalf("expired_unfetched = %q", stats["expired_unfetched"])
	}
}

func TestTouchExtendsTTLOverTCP(t *testing.T) {
	clk := clock.NewFake(time.Unix(1_700_000_000, 0), 0)
	s := newTestServer(t, cache.WithClock(clk.Now))
	rc := dialRaw(t, s.Addr())
	rc.send(t, "set k 0 1 1\r\nx\r\n")
	if _, err := rc.reply.ReadSimple(); err != nil {
		t.Fatal(err)
	}
	rc.send(t, "touch k 3600\r\n")
	if line, _ := rc.reply.ReadSimple(); line != "TOUCHED" {
		t.Fatalf("touch reply = %q", line)
	}
	clk.Advance(1200 * time.Millisecond)
	rc.send(t, "get k\r\n")
	values, err := rc.reply.ReadValues()
	if err != nil || len(values) != 1 {
		t.Fatalf("touched key expired anyway: %v, %v", values, err)
	}
}

// TestTTLOnSkewedCacheClock: a relative exptime counts on the served
// cache's clock, not the machine's, so a TTL lives as long on a node whose
// clock runs 90 minutes ahead of or behind wall time as on any other.
func TestTTLOnSkewedCacheClock(t *testing.T) {
	for _, skew := range []time.Duration{90 * time.Minute, -90 * time.Minute} {
		clk := clock.NewFake(time.Now().Add(skew), 0)
		rc := dialRaw(t, newTestServer(t, cache.WithClock(clk.Now)).Addr())
		rc.send(t, "set k 0 60 1\r\nx\r\n")
		if line, _ := rc.reply.ReadSimple(); line != "STORED" {
			t.Fatalf("skew %v: set reply = %q", skew, line)
		}
		rc.send(t, "get k\r\n")
		if values, err := rc.reply.ReadValues(); err != nil || len(values) != 1 {
			t.Fatalf("skew %v: get before the TTL = %v, %v", skew, values, err)
		}
		clk.Advance(61 * time.Second)
		rc.send(t, "get k\r\n")
		if values, err := rc.reply.ReadValues(); err != nil || len(values) != 0 {
			t.Fatalf("skew %v: get after the TTL = %v, %v", skew, values, err)
		}
	}
}

func TestNegativeExptimeExpiresImmediately(t *testing.T) {
	s := newTestServer(t)
	rc := dialRaw(t, s.Addr())
	rc.send(t, "set k 0 -1 1\r\nx\r\n")
	if line, _ := rc.reply.ReadSimple(); line != "STORED" {
		t.Fatalf("set reply = %q", line)
	}
	rc.send(t, "get k\r\n")
	values, err := rc.reply.ReadValues()
	if err != nil {
		t.Fatal(err)
	}
	if len(values) != 0 {
		t.Fatal("negative exptime item was served")
	}
}

func TestExpiryFromExptime(t *testing.T) {
	never := func() time.Time {
		t.Fatal("exptime 0 read the clock")
		return time.Time{}
	}
	if got := expiryFromExptime(0, never); !got.IsZero() {
		t.Fatalf("exptime 0 = %v, want never", got)
	}
	now := time.Unix(1_700_000_000, 0)
	clk := clock.NewFake(now, 0)
	if got := expiryFromExptime(60, clk.Now); !got.Equal(now.Add(time.Minute)) {
		t.Fatalf("relative exptime = %v", got)
	}
	abs := now.Add(90 * 24 * time.Hour).Unix()
	if got := expiryFromExptime(abs, clk.Now); !got.Equal(time.Unix(abs, 0)) {
		t.Fatalf("absolute exptime = %v", got)
	}
	if got := expiryFromExptime(-1, clk.Now); !got.Before(now) {
		t.Fatalf("negative exptime = %v, want already expired", got)
	}
	// The 30-day boundary is relative; one past it is absolute.
	boundary := int64(relativeExptimeLimit)
	if got := expiryFromExptime(boundary, clk.Now); !got.Equal(now.Add(time.Duration(boundary) * time.Second)) {
		t.Fatal("boundary must be relative")
	}
}

func TestGetsMissOmitsValue(t *testing.T) {
	s := newTestServer(t)
	rc := dialRaw(t, s.Addr())
	rc.send(t, "gets nothing\r\n")
	values, err := rc.reply.ReadValuesCAS()
	if err != nil || len(values) != 0 {
		t.Fatalf("gets miss = %v, %v", values, err)
	}
	_ = strings.TrimSpace // placate linters about the strings import if unused
}

func TestExpiryCrawlerReclaimsInBackground(t *testing.T) {
	c, err := cache.New(2 * cache.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Listen("127.0.0.1:0", c, WithExpiryCrawler(100*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })

	if err := c.SetBytes([]byte("k"), []byte("v"), 0, time.Now().Add(200*time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if c.Stats().Expirations == 1 {
			return // crawler reclaimed it without any access
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatal("crawler never reclaimed the expired item")
}

func TestCloseJoinsCrawler(t *testing.T) {
	c, err := cache.New(cache.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Listen("127.0.0.1:0", c, WithExpiryCrawler(10*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	// Close must return promptly with the crawler running.
	done := make(chan error, 1)
	go func() { done <- s.Close() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung on the crawler")
	}
}
