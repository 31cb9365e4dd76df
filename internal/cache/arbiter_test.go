package cache

import (
	"fmt"
	"testing"
	"time"
)

// driveTenant runs `ops` read-through accesses over a tenant's "name/"
// keyspace so the sample buffers and hit counters carry a recognizable reuse
// pattern.
func driveTenant(t *testing.T, c *Cache, name string, keys, ops int, rng func() int) {
	t.Helper()
	val := make([]byte, 700)
	var buf [1024]byte
	for i := 0; i < ops; i++ {
		k := []byte(fmt.Sprintf("%s/w-%06d", name, rng()%keys))
		if _, _, _, hit := c.GetInto(k, buf[:0]); !hit {
			if err := c.SetBytes(k, val, 0, time.Time{}); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestArbiterMovesTowardGain sets up a small node with a hot tenant starved
// by an even static split and a scanning tenant wasting pages, then drives
// deterministic RunOnce cycles. The arbiter must move pages toward the hot
// tenant, never break the floor, and account its moves.
func TestArbiterMovesTowardGain(t *testing.T) {
	c, err := New(8*PageSize, WithShards(1), WithTenantPrefix('/'))
	if err != nil {
		t.Fatal(err)
	}
	hot, _ := c.RegisterTenant("hot", TenantConfig{ReservedPages: 1})
	cold, _ := c.RegisterTenant("cold", TenantConfig{ReservedPages: 1})
	// Static even split to start.
	c.SetTenantQuota(hot, 4)
	c.SetTenantQuota(cold, 4)

	arb := NewArbiter(c, ArbiterConfig{SampleBuffer: 1 << 15, Buckets: 48, BucketCap: 512})

	// hot re-references a working set (~6 pages of demand) under Zipf-ish
	// reuse; cold streams sequentially and never re-references.
	hseed, cseed := uint32(1), 0
	hotNext := func() int { hseed = hseed*1664525 + 1013904223; return int(hseed % 8000) }
	coldNext := func() int { cseed++; return cseed }
	for round := 0; round < 12; round++ {
		driveTenant(t, c, "hot", 8000, 6000, hotNext)
		driveTenant(t, c, "cold", 1<<30, 2000, coldNext)
		arb.RunOnce()
	}

	var hs, cs TenantStats
	for _, st := range c.TenantStats() {
		switch st.ID {
		case hot:
			hs = st
		case cold:
			cs = st
		}
	}
	if arb.Moves() == 0 {
		t.Fatal("arbiter made no moves under an obvious gradient")
	}
	if hs.Quota <= 4 {
		t.Fatalf("hot tenant quota %d never grew past the static split", hs.Quota)
	}
	if cs.Quota < 1 || cs.Pages < 1 {
		t.Fatalf("cold tenant pushed below its reserved floor: %+v", cs)
	}
	if cycles := arbCycles(arb); cycles != 12 {
		t.Fatalf("cycles = %d, want 12", cycles)
	}
	c.checkShardInvariants(t)
}

// TestArbiterIdleNoMoves checks the hysteresis guard: with no traffic there
// are no gradients, and the arbiter must leave the partition alone.
func TestArbiterIdleNoMoves(t *testing.T) {
	c, err := New(4*PageSize, WithShards(1), WithTenantPrefix('/'))
	if err != nil {
		t.Fatal(err)
	}
	a, _ := c.RegisterTenant("a", TenantConfig{})
	c.RegisterTenant("b", TenantConfig{})
	c.SetTenantQuota(a, 2)

	arb := NewArbiter(c, ArbiterConfig{})
	for i := 0; i < 5; i++ {
		if moved := arb.RunOnce(); moved != 0 {
			t.Fatalf("cycle %d moved %d pages with zero traffic", i, moved)
		}
	}
}

// TestArbiterStartStop exercises the ticker loop end to end: a running
// arbiter must complete cycles on its own and Stop must be idempotent.
func TestArbiterStartStop(t *testing.T) {
	c, err := New(4*PageSize, WithShards(1), WithTenantPrefix('/'))
	if err != nil {
		t.Fatal(err)
	}
	c.RegisterTenant("a", TenantConfig{})
	arb := NewArbiter(c, ArbiterConfig{Interval: time.Millisecond})
	arb.Start()
	arb.Start() // second Start is a no-op, not a second loop
	deadline := time.Now().Add(2 * time.Second)
	for arbCycles(arb) < 3 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	arb.Stop()
	arb.Stop()
	if got := arbCycles(arb); got < 3 {
		t.Fatalf("ticker loop completed %d cycles in 2s, want >= 3", got)
	}
}

// arbCycles reads the arbiter's lifetime cycle count.
func arbCycles(a *Arbiter) uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.cycles
}
