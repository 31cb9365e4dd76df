package server

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/hashring"
)

func TestLeaseGrantTakeOverWire(t *testing.T) {
	s := newTestServer(t)
	rc := dialRaw(t, s.Addr())

	// Miss hands out a token.
	rc.send(t, "lget foo\r\n")
	_, _, hit, token, err := rc.reply.ReadLeaseGet()
	if err != nil || hit || token == 0 {
		t.Fatalf("first lget: hit=%v token=%d err=%v", hit, token, err)
	}

	// A second miss while the fill is outstanding gets token 0: back off.
	rc.send(t, "lget foo\r\n")
	_, _, hit, token2, err := rc.reply.ReadLeaseGet()
	if err != nil || hit || token2 != 0 {
		t.Fatalf("outstanding lget: hit=%v token=%d err=%v", hit, token2, err)
	}

	// The token holder fills.
	rc.send(t, fmt.Sprintf("lset foo 7 0 5 %d\r\nhello\r\n", token))
	if line, err := rc.reply.ReadSimple(); err != nil || line != "STORED" {
		t.Fatalf("lset = %q, %v", line, err)
	}

	// The fill is visible to plain gets and lease gets.
	rc.send(t, "lget foo\r\n")
	val, flags, hit, _, err := rc.reply.ReadLeaseGet()
	if err != nil || !hit || string(val) != "hello" || flags != 7 {
		t.Fatalf("post-fill lget: val=%q flags=%d hit=%v err=%v", val, flags, hit, err)
	}

	// Replaying the consumed token is rejected.
	rc.send(t, fmt.Sprintf("lset foo 7 0 5 %d\r\nworld\r\n", token))
	if line, err := rc.reply.ReadSimple(); err != nil || line != "NOT_STORED" {
		t.Fatalf("duplicate lset = %q, %v", line, err)
	}
}

func TestLeaseInvalidatedByWrite(t *testing.T) {
	s := newTestServer(t)
	rc := dialRaw(t, s.Addr())

	rc.send(t, "lget foo\r\n")
	_, _, _, token, err := rc.reply.ReadLeaseGet()
	if err != nil || token == 0 {
		t.Fatalf("lget: token=%d err=%v", token, err)
	}

	// A direct write races ahead of the fill and must win.
	rc.send(t, "set foo 0 0 5\r\nfresh\r\n")
	if line, err := rc.reply.ReadSimple(); err != nil || line != "STORED" {
		t.Fatalf("set = %q, %v", line, err)
	}
	rc.send(t, fmt.Sprintf("lset foo 0 0 5 %d\r\nstale\r\n", token))
	if line, err := rc.reply.ReadSimple(); err != nil || line != "NOT_STORED" {
		t.Fatalf("stale lset = %q, %v", line, err)
	}

	rc.send(t, "get foo\r\n")
	values, err := rc.reply.ReadValues()
	if err != nil || string(values["foo"]) != "fresh" {
		t.Fatalf("get after race = %q, %v", values["foo"], err)
	}
}

func TestLeaseTokenExpiry(t *testing.T) {
	clk := clock.NewFake(time.Unix(1000, 0), 0)
	var count atomic.Int64
	lt := newLeaseTable(2*time.Second, 16, clk.Now, &count)

	tok := lt.grant([]byte("k"))
	if tok == 0 {
		t.Fatal("grant returned 0")
	}
	// While outstanding and fresh, other grants back off.
	if got := lt.grant([]byte("k")); got != 0 {
		t.Fatalf("concurrent grant = %d, want 0", got)
	}
	clk.Advance(3 * time.Second)
	// Expired: the take is rejected (fill right forfeit)...
	if lt.take([]byte("k"), tok) {
		t.Fatal("take succeeded on expired lease")
	}
	// ...and a new grant succeeds.
	tok2 := lt.grant([]byte("k"))
	if tok2 == 0 || tok2 == tok {
		t.Fatalf("re-grant = %d (old %d)", tok2, tok)
	}
	if !lt.take([]byte("k"), tok2) {
		t.Fatal("take failed on fresh lease")
	}
	if count.Load() != 0 {
		t.Fatalf("outstanding = %d, want 0", count.Load())
	}
}

func TestLeaseTableBound(t *testing.T) {
	clk := clock.NewFake(time.Unix(1000, 0), 0)
	var count atomic.Int64
	lt := newLeaseTable(2*time.Second, 4, clk.Now, &count)

	for i := 0; i < 4; i++ {
		if tok := lt.grant([]byte(fmt.Sprintf("k%d", i))); tok == 0 {
			t.Fatalf("grant %d returned 0", i)
		}
	}
	// Table full: a fifth key is refused.
	if tok := lt.grant([]byte("k4")); tok != 0 {
		t.Fatalf("over-cap grant = %d, want 0", tok)
	}
	// Once the old leases expire the sweep frees room.
	clk.Advance(3 * time.Second)
	if tok := lt.grant([]byte("k4")); tok == 0 {
		t.Fatal("grant after sweep returned 0")
	}
	if count.Load() != 1 {
		t.Fatalf("outstanding = %d, want 1", count.Load())
	}
}

func TestGutterEvictionBounds(t *testing.T) {
	clk := clock.NewFake(time.Unix(1000, 0), 0)
	var count atomic.Int64
	g := newGutterPool(10*time.Second, 3, 1<<20, clk.Now, &count)

	for i := 0; i < 5; i++ {
		g.set([]byte(fmt.Sprintf("k%d", i)), []byte("v"), 0)
	}
	if count.Load() != 3 {
		t.Fatalf("items = %d, want 3 (item cap)", count.Load())
	}
	if g.evictions.Load() != 2 {
		t.Fatalf("evictions = %d, want 2", g.evictions.Load())
	}
	// FIFO: the two oldest are gone, the three newest remain.
	if _, _, ok := g.get([]byte("k0"), nil); ok {
		t.Fatal("k0 survived item-cap eviction")
	}
	if _, _, ok := g.get([]byte("k4"), nil); !ok {
		t.Fatal("k4 missing")
	}

	// Byte cap: a second pool bounded by bytes, not items.
	var count2 atomic.Int64
	g2 := newGutterPool(10*time.Second, 100, 10, clk.Now, &count2)
	g2.set([]byte("a"), []byte("12345678"), 0)
	g2.set([]byte("b"), []byte("12345678"), 0) // 16 bytes > cap: evicts a
	if _, _, ok := g2.get([]byte("a"), nil); ok {
		t.Fatal("a survived byte-cap eviction")
	}
	if _, _, ok := g2.get([]byte("b"), nil); !ok {
		t.Fatal("b missing")
	}

	// TTL: entries age out on read.
	clk.Advance(11 * time.Second)
	if _, _, ok := g2.get([]byte("b"), nil); ok {
		t.Fatal("b served after TTL")
	}
	if count2.Load() != 0 {
		t.Fatalf("items after TTL reclaim = %d, want 0", count2.Load())
	}
}

// inFlightKey finds a key whose owner changes under table.
func inFlightKey(t *testing.T, table *hashring.Table) string {
	t.Helper()
	for i := 0; i < 100000; i++ {
		k := fmt.Sprintf("probe%05d", i)
		if table.InFlightHash(hashring.KeyHash(k)) {
			return k
		}
	}
	t.Fatal("no in-flight key found")
	return ""
}

// leaseFill wins the fill right for key with lget and fills it with lset.
func leaseFill(t *testing.T, rc *rawConn, key, value string) {
	t.Helper()
	rc.send(t, "lget "+key+"\r\n")
	_, _, _, token, err := rc.reply.ReadLeaseGet()
	if err != nil || token == 0 {
		t.Fatalf("lget %s: token=%d err=%v", key, token, err)
	}
	rc.send(t, fmt.Sprintf("lset %s 3 0 %d %d\r\n%s\r\n", key, len(value), token, value))
	if line, err := rc.reply.ReadSimple(); err != nil || line != "STORED" {
		t.Fatalf("lset %s = %q, %v", key, line, err)
	}
}

func TestLeaseFillDivertsToGutterMidHandover(t *testing.T) {
	s := newTestServer(t)

	settled, err := hashring.NewTable([]string{"a", "b", "c"})
	if err != nil {
		t.Fatal(err)
	}
	table, moved, err := settled.BeginHandover([]string{"a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	if moved == 0 {
		t.Fatal("no keys moving")
	}
	s.OwnershipChanged(table)
	key := inFlightKey(t, table)

	rc := dialRaw(t, s.Addr())
	leaseFill(t, rc, key, "gutter")

	// The fill parked in the gutter, not the main cache...
	if _, ok := s.cache.Peek(key); ok {
		t.Fatal("mid-handover fill landed in the main cache")
	}
	// ...but plain gets still serve it.
	rc.send(t, "get "+key+"\r\n")
	values, err := rc.reply.ReadValues()
	if err != nil || string(values[key]) != "gutter" {
		t.Fatalf("get from gutter = %q, %v", values[key], err)
	}
	if s.gutterFills.Load() != 1 || s.gutterHits.Load() != 1 {
		t.Fatalf("gutter fills/hits = %d/%d, want 1/1",
			s.gutterFills.Load(), s.gutterHits.Load())
	}

	// Once the handover settles, fills go to the main cache again.
	settled2, err := table.Settle()
	if err != nil {
		t.Fatal(err)
	}
	s.OwnershipChanged(settled2)
	key2 := key + "-post"
	leaseFill(t, rc, key2, "main")
	if _, ok := s.cache.Peek(key2); !ok {
		t.Fatal("post-settle fill missing from main cache")
	}
}

// TestLeaseFillGuttersOnlyMovingKeys: mid-handover the gutter decides per
// key. A fill for a key whose owner changes parks in the gutter (the
// migration stream delivers the authoritative copy); a fill for a key
// whose owner does not change stores in the main cache — no stream will
// ever deliver it — even when it shares its 1/1024 arc of the circle with
// a moving key.
func TestLeaseFillGuttersOnlyMovingKeys(t *testing.T) {
	s := newTestServer(t)

	settled, err := hashring.NewTable([]string{"a", "b", "c"})
	if err != nil {
		t.Fatal(err)
	}
	table, _, err := settled.BeginHandover([]string{"a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	s.OwnershipChanged(table)
	// A moving and an unmoved key in the same 1/1024 arc.
	var moving, stable string
	seen := make(map[uint64][2]string)
	for i := 0; moving == "" && i < 100000; i++ {
		k := fmt.Sprintf("probe%05d", i)
		h := hashring.KeyHash(k)
		pair := seen[h>>54]
		if table.InFlightHash(h) {
			pair[0] = k
		} else {
			pair[1] = k
		}
		seen[h>>54] = pair
		if pair[0] != "" && pair[1] != "" {
			moving, stable = pair[0], pair[1]
		}
	}
	if moving == "" {
		t.Fatal("no arc holds both a moving and an unmoved key")
	}

	rc := dialRaw(t, s.Addr())
	leaseFill(t, rc, moving, "moving")
	leaseFill(t, rc, stable, "stable")
	if _, ok := s.cache.Peek(moving); ok {
		t.Fatal("a moving key's fill landed in the main cache")
	}
	if v, ok := s.cache.Peek(stable); !ok || string(v) != "stable" {
		t.Fatalf("unmoved key's fill in the main cache = %q, %v; want it stored there", v, ok)
	}
	if s.gutterFills.Load() != 1 {
		t.Fatalf("gutter fills = %d, want 1 (the moving key only)", s.gutterFills.Load())
	}
}

// TestMissStormLeases is the miss-storm regression: without leases every
// concurrent miss turns into a backing-store load; with leases exactly
// one client wins the fill right and the rest back off.
func TestMissStormLeases(t *testing.T) {
	s := newTestServer(t)
	const clients = 16

	var dbLoadsLease atomic.Uint64
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rc := dialRaw(t, s.Addr())
			rc.send(t, "lget storm\r\n")
			_, _, hit, token, err := rc.reply.ReadLeaseGet()
			if err != nil {
				t.Error(err)
				return
			}
			if !hit && token != 0 {
				// This client won the fill right: it alone pays the
				// backing-store load.
				dbLoadsLease.Add(1)
			}
		}()
	}
	wg.Wait()
	if got := dbLoadsLease.Load(); got != 1 {
		t.Fatalf("lease-protected miss storm caused %d backing loads, want 1", got)
	}

	// Control arm: the same storm over plain get — every miss is a load.
	var dbLoadsPlain atomic.Uint64
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rc := dialRaw(t, s.Addr())
			rc.send(t, "get storm2\r\n")
			values, err := rc.reply.ReadValues()
			if err != nil {
				t.Error(err)
				return
			}
			if _, ok := values["storm2"]; !ok {
				dbLoadsPlain.Add(1)
			}
		}()
	}
	wg.Wait()
	if got := dbLoadsPlain.Load(); got != clients {
		t.Fatalf("plain miss storm caused %d backing loads, want %d", got, clients)
	}
}
