package e2eharness

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/server"
)

func TestMatchScenarios(t *testing.T) {
	all := []Scenario{
		{Name: "node-crash-mid-migration"},
		{Name: "master-restart-resume"},
		{Name: "partition-heal"},
		{Name: "warm-restart-snapshot"},
	}
	cases := []struct {
		filter string
		want   []string
	}{
		{"", []string{"node-crash-mid-migration", "master-restart-resume", "partition-heal", "warm-restart-snapshot"}},
		{"crash", []string{"node-crash-mid-migration"}},
		{"RESTART", []string{"master-restart-resume", "warm-restart-snapshot"}},
		{"crash, partition", []string{"node-crash-mid-migration", "partition-heal"}},
		{"nope", nil},
		{" , ", []string{"node-crash-mid-migration", "master-restart-resume", "partition-heal", "warm-restart-snapshot"}},
	}
	for _, tc := range cases {
		got := MatchScenarios(all, tc.filter)
		names := make([]string, len(got))
		for i, sc := range got {
			names[i] = sc.Name
		}
		if strings.Join(names, "|") != strings.Join(tc.want, "|") {
			t.Errorf("filter %q: got %v, want %v", tc.filter, names, tc.want)
		}
	}
}

// TestProbesAgainstLiveServer exercises the wire probes against an
// in-process server so tier-1 covers them without spawning binaries.
func TestProbesAgainstLiveServer(t *testing.T) {
	c, err := cache.New(4 * cache.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	s, err := server.Listen("127.0.0.1:0", c)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	if err := WaitMemcachedReady(s.Addr(), 2*time.Second); err != nil {
		t.Fatalf("ready probe: %v", err)
	}

	if reply, err := RawSet(s.Addr(), "probe", []byte("payload"), 0); err != nil || reply != "STORED" {
		t.Fatalf("RawSet: %q, %v", reply, err)
	}
	got, hit, err := RawGet(s.Addr(), "probe")
	if err != nil || !hit || !bytes.Equal(got, []byte("payload")) {
		t.Fatalf("RawGet: %q hit=%v err=%v", got, hit, err)
	}
	if _, hit, err := RawGet(s.Addr(), "absent"); err != nil || hit {
		t.Fatalf("RawGet miss: hit=%v err=%v", hit, err)
	}

	stats, err := Stats(s.Addr())
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if stats["curr_items"] != "1" {
		t.Fatalf("curr_items = %q, want 1", stats["curr_items"])
	}
}

func TestWaitMemcachedReadyTimesOut(t *testing.T) {
	start := time.Now()
	err := WaitMemcachedReady("127.0.0.1:1", 300*time.Millisecond)
	if err == nil {
		t.Fatal("probe of a dead port succeeded")
	}
	if time.Since(start) > 3*time.Second {
		t.Fatalf("timeout not honored: %v", time.Since(start))
	}
}

func TestOracleValuesDeterministic(t *testing.T) {
	a, b := NewOracle(7), NewOracle(7)
	va := a.value("some-key-001", 64)
	vb := b.value("some-key-001", 64)
	if !bytes.Equal(va, vb) {
		t.Fatal("oracle values for the same key diverge across instances")
	}
	if bytes.Equal(va, a.value("some-key-002", 64)) {
		t.Fatal("oracle values for different keys collide")
	}
}

func TestFreePortsDistinct(t *testing.T) {
	ports, err := FreePorts(9)
	if err != nil {
		t.Fatal(err)
	}
	low, high := ephemeralRange()
	seen := make(map[int]bool)
	for _, p := range ports {
		if seen[p] {
			t.Fatalf("duplicate port %d in %v", p, ports)
		}
		seen[p] = true
		if p >= low && p <= high {
			t.Fatalf("port %d lies in the ephemeral range %d-%d", p, low, high)
		}
	}
}

func TestSpawnCapturesOutput(t *testing.T) {
	dir := t.TempDir()
	p, err := Spawn(dir, "echo", "/bin/sh", "-c", "echo spawned-ok; exit 0")
	if err != nil {
		t.Fatal(err)
	}
	werr, ok := p.Wait(5 * time.Second)
	if !ok || werr != nil {
		t.Fatalf("wait: exited=%v err=%v", ok, werr)
	}
	if !strings.Contains(p.Output(), "spawned-ok") {
		t.Fatalf("captured output %q", p.Output())
	}
	if !p.Exited() {
		t.Fatal("Exited false after Wait")
	}

	failing, err := Spawn(dir, "fail", "/bin/sh", "-c", "exit 3")
	if err != nil {
		t.Fatal(err)
	}
	if werr, ok := failing.Wait(5 * time.Second); !ok || werr == nil {
		t.Fatalf("failing process: exited=%v err=%v", ok, werr)
	}
}

func TestPrefixWriter(t *testing.T) {
	var buf bytes.Buffer
	w := prefixWriter{&buf, "  | "}
	if _, err := w.Write([]byte("one\ntwo\n")); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != "  | one\n  | two\n" {
		t.Fatalf("prefixed output %q", got)
	}
}
