package server

import (
	"strings"
	"testing"

	"repro/internal/cache"
)

// newTenantServer builds a server over a cache with two registered tenants
// and prefix routing on '/'.
func newTenantServer(t *testing.T) *Server {
	t.Helper()
	c, err := cache.New(8*cache.PageSize, cache.WithTenantPrefix('/'))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"acme", "umbrella"} {
		if _, err := c.RegisterTenant(name, cache.TenantConfig{}); err != nil {
			t.Fatal(err)
		}
	}
	s, err := Listen("127.0.0.1:0", c)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	return s
}

// TestTenantPrefixOverWire checks prefix routing over the wire: "acme/k"
// lands in tenant acme, an unknown prefix stays in the default namespace,
// and a `namespace` line is an unknown command that leaves the connection
// serving.
func TestTenantPrefixOverWire(t *testing.T) {
	s := newTenantServer(t)
	rc := dialRaw(t, s.Addr())

	rc.send(t, "set acme/cfg 0 0 2\r\nok\r\n")
	if line, _ := rc.reply.ReadSimple(); line != "STORED" {
		t.Fatal("prefixed set failed")
	}
	// An unknown prefix stays in the default namespace.
	rc.send(t, "set ghost/cfg 0 0 3\r\ndef\r\n")
	if line, _ := rc.reply.ReadSimple(); line != "STORED" {
		t.Fatal("unknown-prefix set failed")
	}
	rc.send(t, "get acme/cfg ghost/cfg\r\n")
	values, err := rc.reply.ReadValues()
	if err != nil || string(values["acme/cfg"]) != "ok" || string(values["ghost/cfg"]) != "def" {
		t.Fatalf("prefixed multi-get = %v, %v", values, err)
	}
	rc.send(t, "stats\r\n")
	stats, err := rc.reply.ReadStats()
	if err != nil {
		t.Fatal(err)
	}
	if stats["tenant:acme:curr_items"] != "1" || stats["tenant:default:curr_items"] != "1" {
		t.Fatalf("curr_items acme/default = %s/%s, want 1/1",
			stats["tenant:acme:curr_items"], stats["tenant:default:curr_items"])
	}

	// ReadSimple surfaces CLIENT_ERROR lines as errors.
	rc.send(t, "namespace acme\r\n")
	if _, err := rc.reply.ReadSimple(); err == nil || !strings.Contains(err.Error(), "unknown command") {
		t.Fatalf("namespace line: err = %v, want unknown command", err)
	}
	rc.send(t, "get acme/cfg\r\n")
	if values, err := rc.reply.ReadValues(); err != nil || string(values["acme/cfg"]) != "ok" {
		t.Fatalf("get after namespace line = %v, %v", values, err)
	}
}

// TestStatsPerTenantRows checks the stats verb emits per-tenant rows once
// named tenants exist, including quota state.
func TestStatsPerTenantRows(t *testing.T) {
	s := newTenantServer(t)
	rc := dialRaw(t, s.Addr())

	rc.send(t, "set acme/hit 0 0 1\r\nx\r\n")
	if line, _ := rc.reply.ReadSimple(); line != "STORED" {
		t.Fatal("set failed")
	}
	rc.send(t, "get acme/hit\r\nget acme/miss\r\n")
	if _, err := rc.reply.ReadValues(); err != nil {
		t.Fatal(err)
	}
	if _, err := rc.reply.ReadValues(); err != nil {
		t.Fatal(err)
	}

	rc.send(t, "stats\r\n")
	stats, err := rc.reply.ReadStats()
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{
		"tenant:acme:get_hits", "tenant:acme:get_misses", "tenant:acme:curr_items",
		"tenant:acme:pages", "tenant:acme:quota_pages",
		"tenant:umbrella:curr_items", "tenant:default:curr_items",
	} {
		if _, ok := stats[key]; !ok {
			t.Errorf("stats missing %q", key)
		}
	}
	if stats["tenant:acme:get_hits"] != "1" || stats["tenant:acme:get_misses"] != "1" {
		t.Errorf("acme hit/miss = %s/%s, want 1/1",
			stats["tenant:acme:get_hits"], stats["tenant:acme:get_misses"])
	}
	if stats["tenant:acme:curr_items"] != "1" {
		t.Errorf("acme curr_items = %s, want 1", stats["tenant:acme:curr_items"])
	}
}
