package loadgen

import (
	"context"
	"errors"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

func validTenantConfig() Config {
	return Config{
		Duration:     250 * time.Millisecond,
		PeakRate:     400,
		KVPerRequest: 4,
		Seed:         1,
		Tenants: []TenantSpec{
			{Name: "a", Keys: 100, Share: 1},
			{Name: "b", Keys: 100, Share: 3},
		},
	}
}

func TestTenantConfigValidation(t *testing.T) {
	h := HandlerFunc(func([]string) (time.Duration, int, int, error) {
		return time.Millisecond, 1, 0, nil
	})
	tests := []struct {
		name   string
		mutate func(*Config)
	}{
		{name: "zero duration", mutate: func(c *Config) { c.Duration = 0 }},
		{name: "zero rate", mutate: func(c *Config) { c.PeakRate = 0 }},
		{name: "zero kv", mutate: func(c *Config) { c.KVPerRequest = 0 }},
		{name: "no tenants", mutate: func(c *Config) { c.Tenants = nil }},
		{name: "unnamed tenant", mutate: func(c *Config) { c.Tenants[0].Name = "" }},
		{name: "zero keys", mutate: func(c *Config) { c.Tenants[0].Keys = 0 }},
		{name: "zero share", mutate: func(c *Config) { c.Tenants[1].Share = 0 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := validTenantConfig()
			tt.mutate(&cfg)
			if _, err := Run(context.Background(), cfg, h); !errors.Is(err, ErrBadConfig) {
				t.Fatalf("err = %v, want ErrBadConfig", err)
			}
		})
	}
	if _, err := Run(context.Background(), validTenantConfig(), nil); !errors.Is(err, ErrBadConfig) {
		t.Fatal("want ErrBadConfig for nil handler")
	}
}

// TestRunTenantsRoutesByShareAndPrefix drives the mix and checks every key
// carries its tenant's prefix and the request split tracks the 1:3 shares.
func TestRunTenantsRoutesByShareAndPrefix(t *testing.T) {
	var mu sync.Mutex
	perPrefix := map[string]int{}
	h := HandlerFunc(func(keys []string) (time.Duration, int, int, error) {
		mu.Lock()
		defer mu.Unlock()
		for _, k := range keys {
			i := strings.IndexByte(k, '/')
			if i < 0 {
				t.Errorf("key %q has no tenant prefix", k)
				continue
			}
			perPrefix[k[:i]]++
		}
		return time.Millisecond, len(keys), 0, nil
	})
	rep, err := Run(context.Background(), validTenantConfig(), h)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Sent == 0 {
		t.Fatal("no requests sent")
	}
	mu.Lock()
	defer mu.Unlock()
	if perPrefix["a"] == 0 || perPrefix["b"] == 0 {
		t.Fatalf("tenant traffic split = %v, both must flow", perPrefix)
	}
	if perPrefix["b"] <= perPrefix["a"] {
		t.Fatalf("share-3 tenant (%d keys) not above share-1 tenant (%d keys)",
			perPrefix["b"], perPrefix["a"])
	}
	var reqs uint64
	for _, o := range rep.Tenants {
		reqs += o.Requests
	}
	if reqs == 0 || rep.Tenants[0].Name != "a" || rep.Tenants[1].Name != "b" {
		t.Fatalf("per-tenant outcomes wrong: %+v", rep.Tenants)
	}
}

// TestRunTenantsShiftExpandsKeyspace checks the noisy-neighbor phase
// change: after ShiftFrac, a shifting tenant draws from the multiplied
// keyspace (key ranks beyond the original footprint appear).
func TestRunTenantsShiftExpandsKeyspace(t *testing.T) {
	cfg := validTenantConfig()
	cfg.Duration = 400 * time.Millisecond
	cfg.ShiftFrac = 0.25
	cfg.Tenants = []TenantSpec{
		{Name: "noisy", Keys: 10, ZipfS: 1.01, Share: 1, Shift: 1000},
	}
	var mu sync.Mutex
	sawBeyond := false
	h := HandlerFunc(func(keys []string) (time.Duration, int, int, error) {
		mu.Lock()
		defer mu.Unlock()
		for _, k := range keys {
			// Keys are "noisy/k<zero-padded rank>"; the original keyspace
			// holds ranks 0..9, so any rank >= 10 proves the shift.
			i := strings.IndexByte(k, 'k')
			if i < 0 {
				t.Errorf("malformed key %q", k)
				continue
			}
			rank, err := strconv.ParseUint(k[i+1:], 10, 64)
			if err != nil {
				t.Errorf("malformed rank in key %q", k)
				continue
			}
			if rank >= 10 {
				sawBeyond = true
			}
		}
		return time.Millisecond, len(keys), 0, nil
	})
	if _, err := Run(context.Background(), cfg, h); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if !sawBeyond {
		t.Fatal("no key beyond the pre-shift keyspace observed after the phase change")
	}
}
