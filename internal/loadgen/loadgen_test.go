package loadgen

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/trace"
)

func validConfig() Config {
	return Config{
		Duration:     300 * time.Millisecond,
		PeakRate:     500,
		KVPerRequest: 5,
		Seed:         1,
		Tenants:      []TenantSpec{{Keys: 1000, Share: 1}},
	}
}

func TestConfigValidation(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Config)
	}{
		{name: "zero duration", mutate: func(c *Config) { c.Duration = 0 }},
		{name: "zero rate", mutate: func(c *Config) { c.PeakRate = 0 }},
		{name: "zero kv", mutate: func(c *Config) { c.KVPerRequest = 0 }},
		{name: "zero keys", mutate: func(c *Config) { c.Tenants[0].Keys = 0 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := validConfig()
			tt.mutate(&cfg)
			_, err := Run(context.Background(), cfg, HandlerFunc(func([]string) (time.Duration, int, int, error) {
				return time.Millisecond, 1, 0, nil
			}))
			if !errors.Is(err, ErrBadConfig) {
				t.Fatalf("err = %v, want ErrBadConfig", err)
			}
		})
	}
}

func TestNilHandler(t *testing.T) {
	if _, err := Run(context.Background(), validConfig(), nil); !errors.Is(err, ErrBadConfig) {
		t.Fatal("want ErrBadConfig for nil handler")
	}
}

func TestRunDrivesHandler(t *testing.T) {
	var count atomic.Uint64
	var keyLens sync.Map
	var prefixed atomic.Bool
	h := HandlerFunc(func(keys []string) (time.Duration, int, int, error) {
		count.Add(1)
		keyLens.Store(len(keys), true)
		for _, k := range keys {
			if strings.Contains(k, "/") {
				prefixed.Store(true)
			}
		}
		return 2 * time.Millisecond, len(keys) - 1, 1, nil
	})
	report, err := Run(context.Background(), validConfig(), h)
	if err != nil {
		t.Fatal(err)
	}
	if count.Load() == 0 || report.Sent != count.Load() {
		t.Fatalf("sent = %d, handled = %d", report.Sent, count.Load())
	}
	if _, ok := keyLens.Load(5); !ok {
		t.Fatal("handler did not receive 5-key batches")
	}
	if prefixed.Load() {
		t.Fatal("a lone unnamed tenant's keys carry a prefix")
	}
	if len(report.Tenants) != 1 || report.Tenants[0].Requests != report.Sent {
		t.Fatalf("tenant outcomes = %+v, want one covering all %d requests", report.Tenants, report.Sent)
	}
	if report.Errors != 0 {
		t.Fatalf("errors = %d", report.Errors)
	}
	if len(report.Series) == 0 {
		t.Fatal("no series recorded")
	}
	if report.AchievedRate <= 0 {
		t.Fatal("achieved rate not reported")
	}
}

func TestRunCountsErrors(t *testing.T) {
	h := HandlerFunc(func([]string) (time.Duration, int, int, error) {
		return 0, 0, 0, errors.New("boom")
	})
	report, err := Run(context.Background(), validConfig(), h)
	if err != nil {
		t.Fatal(err)
	}
	if report.Errors == 0 || report.Errors != report.Sent {
		t.Fatalf("errors = %d of %d", report.Errors, report.Sent)
	}
}

func TestRunHonorsContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var count atomic.Uint64
	h := HandlerFunc(func([]string) (time.Duration, int, int, error) {
		if count.Add(1) == 3 {
			cancel()
		}
		return time.Millisecond, 1, 0, nil
	})
	cfg := validConfig()
	cfg.Duration = 10 * time.Second // would run far longer without cancel
	start := time.Now()
	if _, err := Run(ctx, cfg, h); err != nil {
		t.Fatal(err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("cancel did not stop the run promptly")
	}
}

func TestRunWithTrace(t *testing.T) {
	tr, err := trace.Generate(trace.SYS, trace.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := validConfig()
	cfg.Trace = tr
	cfg.Duration = 200 * time.Millisecond
	var count atomic.Uint64
	h := HandlerFunc(func([]string) (time.Duration, int, int, error) {
		count.Add(1)
		return time.Millisecond, 1, 0, nil
	})
	report, err := Run(context.Background(), cfg, h)
	if err != nil {
		t.Fatal(err)
	}
	if report.Sent == 0 {
		t.Fatal("trace-modulated run sent nothing")
	}
}

func TestRunApproximatesRate(t *testing.T) {
	cfg := validConfig()
	cfg.Duration = 500 * time.Millisecond
	cfg.PeakRate = 200
	h := HandlerFunc(func([]string) (time.Duration, int, int, error) {
		return time.Microsecond, 1, 0, nil
	})
	report, err := Run(context.Background(), cfg, h)
	if err != nil {
		t.Fatal(err)
	}
	// Open loop at 200/s for 0.5s → ≈100 requests; allow wide slack for
	// scheduler jitter on loaded CI machines.
	if report.Sent < 30 || report.Sent > 300 {
		t.Fatalf("sent %d requests, want ≈100", report.Sent)
	}
}
