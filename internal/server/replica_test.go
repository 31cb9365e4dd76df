package server

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/hashring"
	"repro/internal/hotkey"
	"repro/internal/memproto"
)

// replicaPair is a home node serving over TCP with one promoted key and
// the replica its pushes land on, in process.
type replicaPair struct {
	s             *Server
	home, replica *cache.Cache
	key           string
}

// newReplicaPair serves home as node "a" of the ring {a, b}, whose node
// "b" holds replica. seed stores the key's first state on the home before
// it is promoted, so the promotion pushes it to the replica.
func newReplicaPair(t *testing.T, home *cache.Cache, seed func(c *cache.Cache, key string)) *replicaPair {
	t.Helper()
	replica, err := cache.New(2 * cache.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	pusher := hotkey.NewLocalPusher()
	pusher.Register("b", hotkey.LocalNode{Store: replica})
	s, rep, key := promotedServer(t, home, pusher, hotkey.Config{})
	seed(home, key)
	if err := rep.Promote(key); err != nil {
		t.Fatal(err)
	}
	return &replicaPair{s: s, home: home, replica: replica, key: key}
}

// TestReplicasFollowEveryWrite: after each client write to a promoted key,
// whether it succeeds or fails, the replica holds exactly the home's
// value, flags and expiry, or nothing when the home holds nothing. The
// last two rows are writes that fail after dropping the home's copy.
func TestReplicasFollowEveryWrite(t *testing.T) {
	small := func(c *cache.Cache, key string) {
		if err := c.SetBytes([]byte(key), []byte("10"), 7, time.Time{}); err != nil {
			t.Fatal(err)
		}
	}
	absent := func(*cache.Cache, string) {}
	// full holds the key in a class-0 chunk of a one-page cache whose
	// page class 0 has filled.
	full := func(c *cache.Cache, key string) {
		small(c, key)
		for i := 0; c.ClassLen(0) < c.ClassCapacity(0); i++ {
			if err := c.Set(fmt.Sprintf("fill-%d", i), []byte("v")); err != nil {
				t.Fatal(err)
			}
		}
	}
	// pageSized holds the key with a value that fills a page but for the
	// 8 bytes a TTL needs.
	pageSized := func(c *cache.Cache, key string) {
		if err := c.Set(key, make([]byte, cache.PageSize-cache.ItemOverhead-len(key))); err != nil {
			t.Fatal(err)
		}
	}
	pages := func(n int64) func() *cache.Cache {
		return func() *cache.Cache { return newCache(t, n, cache.WithShards(1)) }
	}
	for _, tc := range []struct {
		name  string
		home  func() *cache.Cache
		seed  func(c *cache.Cache, key string)
		req   func(p *replicaPair) string // the request, built once the key is known
		reply string
	}{
		{"set", pages(2), small, func(p *replicaPair) string { return "set " + p.key + " 3 100 2\r\nv2\r\n" }, "STORED"},
		{"add absent", pages(2), absent, func(p *replicaPair) string { return "add " + p.key + " 3 0 2\r\nv2\r\n" }, "STORED"},
		{"add present", pages(2), small, func(p *replicaPair) string { return "add " + p.key + " 3 0 2\r\nv2\r\n" }, "NOT_STORED"},
		{"replace", pages(2), small, func(p *replicaPair) string { return "replace " + p.key + " 3 0 2\r\nv2\r\n" }, "STORED"},
		{"append", pages(2), small, func(p *replicaPair) string { return "append " + p.key + " 0 0 1\r\n5\r\n" }, "STORED"},
		{"prepend", pages(2), small, func(p *replicaPair) string { return "prepend " + p.key + " 0 0 1\r\n5\r\n" }, "STORED"},
		{"cas hit", pages(2), small, func(p *replicaPair) string {
			_, _, token, _ := p.home.GetInto([]byte(p.key), nil)
			return fmt.Sprintf("cas %s 3 0 2 %d\r\nv2\r\n", p.key, token)
		}, "STORED"},
		{"cas stale", pages(2), small, func(p *replicaPair) string { return "cas " + p.key + " 3 0 2 999999\r\nv2\r\n" }, "EXISTS"},
		{"incr", pages(2), small, func(p *replicaPair) string { return "incr " + p.key + " 5\r\n" }, "15"},
		{"decr", pages(2), small, func(p *replicaPair) string { return "decr " + p.key + " 3\r\n" }, "7"},
		{"touch", pages(2), small, func(p *replicaPair) string { return "touch " + p.key + " 100\r\n" }, "TOUCHED"},
		{"delete", pages(2), small, func(p *replicaPair) string { return "delete " + p.key + "\r\n" }, "DELETED"},
		{"lset", pages(2), absent, func(p *replicaPair) string {
			token := p.s.leases.grant([]byte(p.key))
			return fmt.Sprintf("lset %s 3 0 2 %d\r\nv2\r\n", p.key, token)
		}, "STORED"},
		{"set to another class on a full cache", pages(1), full, func(p *replicaPair) string {
			return "set " + p.key + " 3 0 500\r\n" + strings.Repeat("x", 500) + "\r\n"
		}, "SERVER_ERROR"},
		{"touch adding a TTL to a page-sized item", pages(2), pageSized, func(p *replicaPair) string {
			return "touch " + p.key + " 100\r\n"
		}, "SERVER_ERROR"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := newReplicaPair(t, tc.home(), tc.seed)
			if _, _, _, ok := p.home.PeekFull(p.key); ok && !p.replica.Contains(p.key) {
				t.Fatal("the promotion pushed no copy to the replica")
			}
			rc := dialRaw(t, p.s.Addr())
			rc.send(t, tc.req(p))
			line, err := rc.reply.ReadSimple()
			if errors.Is(err, memproto.ErrServer) {
				line, err = err.Error(), nil // the error names the reply line
			}
			if err != nil || !strings.Contains(line, tc.reply) {
				t.Fatalf("reply = %q, %v; want %s", line, err, tc.reply)
			}
			hv, hf, hexp, hok := p.home.PeekFull(p.key)
			rv, rf, rexp, rok := p.replica.PeekFull(p.key)
			if hok != rok || string(hv) != string(rv) || hf != rf || !hexp.Equal(rexp) {
				t.Fatalf("home holds (%d bytes %.10q, flags %d, expiry %v, %v), replica (%d bytes %.10q, flags %d, expiry %v, %v)",
					len(hv), hv, hf, hexp, hok, len(rv), rv, rf, rexp, rok)
			}
		})
	}
}

// pushLog is a hotkey.Pusher that records what it is asked to push.
type pushLog struct{ ops []hotkey.PushOp }

func (l *pushLog) Push(_ string, op hotkey.PushOp) error {
	l.ops = append(l.ops, op)
	return nil
}

// promotedServer serves c as node "a" of the ring {a, b} with a
// replicator that pushes through pusher, and returns a key homed on "a".
func promotedServer(t *testing.T, c *cache.Cache, pusher hotkey.Pusher, cfg hotkey.Config) (*Server, *hotkey.Replicator, string) {
	t.Helper()
	table, err := hashring.NewTable([]string{"a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	key := ""
	for i := 0; key == ""; i++ {
		if owner, _ := table.Owner(fmt.Sprintf("hot-%d", i)); owner == "a" {
			key = fmt.Sprintf("hot-%d", i)
		}
	}
	rep := hotkey.New("a", c, pusher, cfg)
	rep.OwnershipChanged(table)
	s, err := Listen("127.0.0.1:0", c)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	s.SetHotKeys(rep)
	return s, rep, key
}

// newCache builds a cache of the given pages for a test.
func newCache(t *testing.T, pages int64, opts ...cache.Option) *cache.Cache {
	t.Helper()
	c, err := cache.New(pages*cache.PageSize, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestTouchOfPromotedKeyPushesPut: a touch reaches a promoted key's
// replicas as an hkput of the whole item under its new expiry.
func TestTouchOfPromotedKeyPushesPut(t *testing.T) {
	log := &pushLog{}
	s, rep, key := promotedServer(t, newCache(t, 2), log, hotkey.Config{})
	if err := s.Cache().SetBytes([]byte(key), []byte("v"), 9, time.Time{}); err != nil {
		t.Fatal(err)
	}
	if err := rep.Promote(key); err != nil {
		t.Fatal(err)
	}
	log.ops = nil
	rc := dialRaw(t, s.Addr())
	rc.send(t, "touch "+key+" 100\r\n")
	if line, err := rc.reply.ReadSimple(); err != nil || line != "TOUCHED" {
		t.Fatalf("touch = %q, %v", line, err)
	}
	_, _, expiry, _ := s.Cache().PeekFull(key)
	if len(log.ops) != 1 {
		t.Fatalf("pushed %d ops, want 1: %+v", len(log.ops), log.ops)
	}
	op := log.ops[0]
	if op.Op != hotkey.OpPut || op.Key != key || string(op.Value) != "v" || op.Flags != 9 || expiry.IsZero() || !op.Expiry.Equal(expiry) {
		t.Fatalf("pushed %+v, want a put of the item under expiry %v", op, expiry)
	}
}

// TestEveryWriteFeedsTheDetector: each client write passes the detector's
// sampling gate, so a key written often enough by any command is promoted
// at the next tick.
func TestEveryWriteFeedsTheDetector(t *testing.T) {
	for _, cmd := range []string{"set %s 0 0 1\r\n1\r\n", "add %s 0 0 1\r\n1\r\n", "replace %s 0 0 1\r\n1\r\n",
		"append %s 0 0 1\r\n1\r\n", "prepend %s 0 0 1\r\n1\r\n", "cas %s 0 0 1 1\r\n1\r\n", "incr %s 1\r\n",
		"decr %s 1\r\n", "delete %s\r\n", "touch %s 0\r\n"} {
		verb := cmd[:strings.IndexByte(cmd, ' ')]
		t.Run(verb, func(t *testing.T) {
			s, rep, key := promotedServer(t, newCache(t, 2), &pushLog{}, hotkey.Config{SampleRate: 1, MinSamples: 8})
			rc := dialRaw(t, s.Addr())
			for i := 0; i < 16; i++ {
				rc.send(t, fmt.Sprintf(cmd, key))
				if _, err := rc.reply.ReadSimple(); err != nil {
					t.Fatal(err)
				}
			}
			rep.Tick()
			if got := rep.Promoted(); len(got) != 1 || got[0] != key {
				t.Fatalf("after 16 %s requests the promoted keys are %v, want [%s]", verb, got, key)
			}
		})
	}
}
