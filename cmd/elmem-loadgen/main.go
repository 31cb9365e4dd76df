// Command elmem-loadgen drives a live ElMem cluster with the paper's
// testbed workload (Section V-A): open-loop web requests with exponential
// inter-arrivals, each a multi-get of Zipf-popular keys, misses served
// from a local simulated database and written back to the cache. The
// per-second hit rate and 95%ile response time are printed, which is the
// raw material of Figures 2/6/8 on real TCP nodes.
//
// Usage:
//
//	elmem-loadgen -members 127.0.0.1:11211,127.0.0.1:11212 \
//	    -rate 500 -duration 30s -keys 100000 -trace SYS
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/client"
	"repro/internal/loadgen"
	"repro/internal/store"
	"repro/internal/trace"
	"repro/internal/webtier"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "elmem-loadgen:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		members    = flag.String("members", "", "cache node addresses: host:port,... (required)")
		rate       = flag.Float64("rate", 200, "peak web-request rate (req/s)")
		duration   = flag.Duration("duration", 30*time.Second, "run length")
		keys       = flag.Uint64("keys", 100_000, "dataset size")
		kv         = flag.Int("kv", 10, "KV fetches per web request")
		zipf       = flag.Float64("zipf", 0.99, "key popularity skew")
		traceName  = flag.String("trace", "", "demand trace (SYS, ETC, SAP, NLANR, Microsoft; empty = constant rate)")
		traceCSV   = flag.String("trace-csv", "", "CSV demand trace file (offset_seconds,rate); overrides -trace")
		dbCapacity = flag.Float64("db-capacity", 4000, "simulated database capacity r_DB (KV req/s)")
		dbBase     = flag.Duration("db-base", time.Millisecond, "simulated database base latency")
		seed       = flag.Int64("seed", 1, "workload seed")
		tenants    = flag.String("tenants", "", "multi-tenant mix: name:keys:zipf:share[:shift],... (shift multiplies the tenant's keyspace mid-run); keys become name/k...")
		shiftAt    = flag.Float64("tenant-shift-at", 0.5, "run fraction at which shifting tenants change phase")
	)
	flag.Parse()

	if *members == "" {
		return fmt.Errorf("-members is required")
	}
	addrs := strings.Split(*members, ",")
	for i := range addrs {
		addrs[i] = strings.TrimSpace(addrs[i])
	}

	cl, err := client.New(addrs)
	if err != nil {
		return err
	}
	defer cl.Close()

	specs := []loadgen.TenantSpec{{Keys: *keys, ZipfS: *zipf, Share: 1}}
	if *tenants != "" {
		if specs, err = parseTenants(*tenants); err != nil {
			return err
		}
	}
	// The simulated database covers the largest (post-shift) keyspace.
	var maxKeys uint64 = 1
	for _, t := range specs {
		n := t.Keys
		if t.Shift > 1 {
			n = uint64(float64(t.Keys) * t.Shift)
		}
		maxKeys = max(maxKeys, n)
	}
	dataset, err := store.NewDataset(maxKeys, store.WithSizeBounds(1, 1024))
	if err != nil {
		return err
	}
	db, err := store.NewDB(dataset, store.LatencyModel{
		Base:     *dbBase,
		Capacity: *dbCapacity,
		Max:      2 * time.Second,
	})
	if err != nil {
		return err
	}
	handler, err := webtier.New(cl, db, webtier.WithRealSleep())
	if err != nil {
		return err
	}

	cfg := loadgen.Config{
		Duration:     *duration,
		PeakRate:     *rate,
		KVPerRequest: *kv,
		Seed:         *seed,
		Tenants:      specs,
		ShiftFrac:    *shiftAt,
	}
	switch {
	case *traceCSV != "":
		f, err := os.Open(*traceCSV)
		if err != nil {
			return err
		}
		tr, err := trace.FromCSV(f)
		closeErr := f.Close()
		if err != nil {
			return err
		}
		if closeErr != nil {
			return closeErr
		}
		cfg.Trace = tr
	case *traceName != "":
		tr, err := parseTrace(*traceName)
		if err != nil {
			return err
		}
		cfg.Trace = tr
	}

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	report, err := loadgen.Run(ctx, cfg, loadgen.HandlerFunc(
		func(keys []string) (time.Duration, int, int, error) {
			res, err := handler.Handle(keys)
			return res.RT, res.Hits, res.Misses, err
		}))
	if err != nil {
		return err
	}

	fmt.Printf("# sent=%d errors=%d achieved_rate=%.1f req/s\n",
		report.Sent, report.Errors, report.AchievedRate)
	if *tenants != "" {
		fmt.Println("tenant requests hitrate")
		for _, o := range report.Tenants {
			fmt.Printf("%s %d %.3f\n", o.Name, o.Requests, o.HitRate())
		}
	}
	fmt.Println("second hitrate p95_ms requests")
	for _, st := range report.Series {
		if st.Requests == 0 {
			continue
		}
		fmt.Printf("%d %.3f %.3f %d\n",
			int(st.At/time.Second), st.HitRate(), st.P95.Seconds()*1000, st.Requests)
	}
	return nil
}

// parseTenants parses "name:keys:zipf:share[:shift],...".
func parseTenants(spec string) ([]loadgen.TenantSpec, error) {
	var out []loadgen.TenantSpec
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		fields := strings.Split(part, ":")
		if len(fields) < 4 || len(fields) > 5 {
			return nil, fmt.Errorf("tenant spec %q: want name:keys:zipf:share[:shift]", part)
		}
		var t loadgen.TenantSpec
		t.Name = fields[0]
		if _, err := fmt.Sscanf(fields[1], "%d", &t.Keys); err != nil {
			return nil, fmt.Errorf("tenant %s: bad keys %q", t.Name, fields[1])
		}
		if _, err := fmt.Sscanf(fields[2], "%g", &t.ZipfS); err != nil {
			return nil, fmt.Errorf("tenant %s: bad zipf %q", t.Name, fields[2])
		}
		if _, err := fmt.Sscanf(fields[3], "%g", &t.Share); err != nil {
			return nil, fmt.Errorf("tenant %s: bad share %q", t.Name, fields[3])
		}
		if len(fields) == 5 {
			if _, err := fmt.Sscanf(fields[4], "%g", &t.Shift); err != nil {
				return nil, fmt.Errorf("tenant %s: bad shift %q", t.Name, fields[4])
			}
		}
		out = append(out, t)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty tenant spec")
	}
	return out, nil
}

func parseTrace(name string) (*trace.Trace, error) {
	for _, n := range trace.All() {
		if strings.EqualFold(n.String(), name) {
			return trace.Generate(n, trace.Options{})
		}
	}
	return nil, fmt.Errorf("unknown trace %q", name)
}
