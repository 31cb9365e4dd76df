// Command elmem-node runs one ElMem cache node: the Memcached-protocol
// TCP server plus the ElMem Agent RPC endpoint that the Master and peer
// Agents use during migration.
//
// Usage:
//
//	elmem-node -addr 127.0.0.1:11211 -agent-addr 127.0.0.1:12211 \
//	    -name nodeA -memory-mb 64 \
//	    -peers nodeB=127.0.0.1:12212,nodeC=127.0.0.1:12213
//
// The node name defaults to the cache address. -peers lists the other
// nodes' agent endpoints so migration phases can stream directly between
// Agents; the Master only coordinates.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"log"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/agent"
	"repro/internal/agentrpc"
	"repro/internal/cache"
	"repro/internal/clock"
	"repro/internal/debugsrv"
	"repro/internal/hashring"
	"repro/internal/hotkey"
	"repro/internal/metrics"
	"repro/internal/server"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "elmem-node:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr      = flag.String("addr", "127.0.0.1:11211", "memcached protocol listen address")
		agentAddr = flag.String("agent-addr", "127.0.0.1:12211", "agent RPC listen address")
		name      = flag.String("name", "", "node name (default: the cache address)")
		memoryMB  = flag.Int("memory-mb", 64, "cache memory budget in MiB")
		peers     = flag.String("peers", "", "comma-separated peer agents: name=host:port,...")
		crawl     = flag.Duration("crawl", time.Minute, "expired-item crawler interval (0 disables)")
		debugAddr = flag.String("debug-addr", "", "serve pprof and expvar on this address (off when empty)")
		verbose   = flag.Bool("v", false, "log requests and agent activity")

		snapshotDir = flag.String("snapshot-dir", "", "warm-restart snapshot directory: restore on start, dump on SIGTERM (off when empty)")
		drain       = flag.Duration("drain", 3*time.Second, "bound on draining in-flight connections at shutdown")
		clockSkew   = flag.Duration("clock-skew", 0, "offset applied to this node's MRU clock (testing)")

		hotMembers   = flag.String("hotkey-members", "", "comma-separated cache addresses of the whole tier (incl. this node); enables hot-key replicated serving")
		hotReplicas  = flag.Int("hotkey-replicas", 2, "hot-key serving-set size R including the home node")
		hotTopK      = flag.Int("hotkey-topk", 16, "max keys this node keeps promoted")
		hotThreshold = flag.Float64("hotkey-threshold", 0.05, "sampled-share threshold that promotes a key")
		hotSample    = flag.Int("hotkey-sample", 32, "sample one in N operations into the hot-key sketch")
		hotTick      = flag.Duration("hotkey-tick", 2*time.Second, "promotion/demotion evaluation interval")

		tenantsFlag = flag.String("tenants", "", "named tenants sharing this node, each serving its \"<name>/key\" keys: name[:reserved_pages[:max_pages]],...")
		arbTick     = flag.Duration("arbiter", 0, "MRC memory-arbitration cycle interval (0 disables; requires -tenants)")
	)
	flag.Parse()

	nodeName := *name
	if nodeName == "" {
		nodeName = *addr
	}

	logger := log.New(os.Stderr, "elmem-node ", log.LstdFlags)
	var cacheOpts []cache.Option
	if *clockSkew != 0 {
		cacheOpts = append(cacheOpts, cache.WithClock(clock.NewMonotonic(*clockSkew)))
	}
	if *tenantsFlag != "" {
		// A tenant is named by its key prefix: "<name>/key", the shape
		// elmem-loadgen -tenants writes.
		cacheOpts = append(cacheOpts, cache.WithTenantPrefix('/'))
	}
	c, err := cache.New(int64(*memoryMB)<<20, cacheOpts...)
	if err != nil {
		return err
	}

	if *tenantsFlag != "" {
		for _, entry := range strings.Split(*tenantsFlag, ",") {
			tname, cfg, err := parseTenantEntry(strings.TrimSpace(entry))
			if err != nil {
				return err
			}
			if _, err := c.RegisterTenant(tname, cfg); err != nil {
				return fmt.Errorf("tenant %q: %w", tname, err)
			}
		}
	}
	if *arbTick > 0 {
		if *tenantsFlag == "" {
			return fmt.Errorf("-arbiter requires -tenants")
		}
		arb := cache.NewArbiter(c, cache.ArbiterConfig{Interval: *arbTick})
		arb.Start()
		defer arb.Stop()
	}

	if *snapshotDir != "" {
		start := time.Now()
		n, err := c.RestoreSnapshotFile(*snapshotDir)
		switch {
		case err == nil:
			logger.Printf("warm restart: restored %d items from %s in %v", n, *snapshotDir, time.Since(start).Round(time.Millisecond))
		case errors.Is(err, fs.ErrNotExist):
			logger.Printf("no snapshot in %s, starting cold", *snapshotDir)
		default:
			// A damaged snapshot degrades to a cold start; it must never
			// stop the node from serving.
			logger.Printf("warning: snapshot restore failed, starting cold: %v", err)
		}
	}

	book := agentrpc.NewAddressBook()
	defer book.Close()
	if *peers != "" {
		for _, entry := range strings.Split(*peers, ",") {
			peerName, peerAddr, ok := strings.Cut(strings.TrimSpace(entry), "=")
			if !ok {
				return fmt.Errorf("bad -peers entry %q (want name=host:port)", entry)
			}
			book.Register(peerName, peerAddr)
		}
	}

	ag, err := agent.New(nodeName, c, book)
	if err != nil {
		return err
	}

	var serverOpts []server.Option
	if *verbose {
		serverOpts = append(serverOpts, server.WithLogger(logger))
	}
	if *crawl > 0 {
		serverOpts = append(serverOpts, server.WithExpiryCrawler(*crawl))
	}
	srv, err := server.Listen(*addr, c, serverOpts...)
	if err != nil {
		return err
	}
	defer func() { _ = srv.Close() }()

	// Hot-key replicated serving: detection feeds from the serving hot
	// path, promotions push copies to replica nodes over the hkput wire
	// command, and clients discover the table through `hotkeys`. Node
	// names must be the dialable cache addresses for the push plane.
	var rep *hotkey.Replicator
	if *hotMembers != "" {
		pusher := hotkey.NewNetPusher(0, 0)
		defer pusher.Close()
		rep = hotkey.New(nodeName, c, pusher, hotkey.Config{
			TopK:           *hotTopK,
			ShareThreshold: *hotThreshold,
			Replicas:       *hotReplicas,
			SampleRate:     *hotSample,
			TickInterval:   *hotTick,
		})
		var members []string
		for _, m := range strings.Split(*hotMembers, ",") {
			if m = strings.TrimSpace(m); m != "" {
				members = append(members, m)
			}
		}
		table, err := hashring.NewTable(members)
		if err != nil {
			return err
		}
		rep.OwnershipChanged(table)
		srv.SetHotKeys(rep)
		ag.SetOwnedFilter(rep.IsOwned)
		rep.Start()
		defer rep.Stop()
		logger.Printf("hot-key replication on: %d members, R=%d, top-%d, threshold %.3f (stats: hotkey_*)",
			len(members), *hotReplicas, *hotTopK, *hotThreshold)
	}

	rpc, err := agentrpc.Serve(*agentAddr, ag, logger)
	if err != nil {
		return err
	}
	defer func() { _ = rpc.Close() }()

	if *debugAddr != "" {
		debugsrv.Publish("elmem_migration", func() any { return ag.Counters() })
		debugsrv.Publish("elmem_cache", func() any {
			st := c.Stats()
			return map[string]any{
				"items":             c.Len(),
				"memoryMB":          *memoryMB,
				"arenaBytes":        st.ArenaBytes,
				"arenaTouchedBytes": st.ArenaTouchedBytes,
				"importRefused":     st.ImportRefused,
				"slabs":             st.Slabs,
			}
		})
		// The arena lives outside the Go heap, so the GC view carries it
		// alongside heapAllocBytes: RSS ≈ heap + arenaTouchedBytes.
		debugsrv.Publish("elmem_gc", func() any {
			st := c.Stats()
			return struct {
				metrics.GCSnapshot
				ArenaBytes        int64 `json:"arenaBytes"`
				ArenaTouchedBytes int64 `json:"arenaTouchedBytes"`
			}{metrics.ReadGC(), st.ArenaBytes, st.ArenaTouchedBytes}
		})
		if *tenantsFlag != "" {
			debugsrv.Publish("elmem_tenants", func() any { return c.TenantStats() })
		}
		if rep != nil {
			debugsrv.Publish("elmem_hotkey", func() any { return rep.Snapshot() })
		}
		dbg, err := debugsrv.Serve(*debugAddr)
		if err != nil {
			return err
		}
		defer func() { _ = dbg.Close() }()
		logger.Printf("debug endpoints (pprof, expvar) on http://%s/debug/", dbg.Addr())
	}

	logger.Printf("node %q serving memcached on %s, agent RPC on %s (%d MiB)",
		nodeName, srv.Addr(), rpc.Addr(), *memoryMB)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	logger.Printf("shutting down: draining connections (bound %v)", *drain)

	// Shutdown ordering: stop accepting and drain in-flight connections
	// first, then stop the agent RPC plane, and only then snapshot — the
	// dump must observe the final quiesced cache state so the restored
	// node serves exactly what drained clients were acknowledged.
	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	if err := srv.Shutdown(ctx); err != nil {
		logger.Printf("warning: server shutdown: %v", err)
	}
	cancel()
	_ = rpc.Close()
	if rep != nil {
		rep.Stop()
	}

	if *snapshotDir != "" {
		start := time.Now()
		n, err := c.WriteSnapshotFile(*snapshotDir)
		if err != nil {
			return fmt.Errorf("snapshot: %w", err)
		}
		logger.Printf("snapshot: wrote %d items to %s in %v", n, *snapshotDir, time.Since(start).Round(time.Millisecond))
	}
	return nil
}

// parseTenantEntry parses one -tenants entry: name[:reserved[:max]], page
// counts.
func parseTenantEntry(entry string) (string, cache.TenantConfig, error) {
	fields := strings.Split(entry, ":")
	if len(fields) < 1 || len(fields) > 3 || fields[0] == "" {
		return "", cache.TenantConfig{}, fmt.Errorf("bad -tenants entry %q (want name[:reserved[:max]])", entry)
	}
	var cfg cache.TenantConfig
	if len(fields) >= 2 {
		n, err := strconv.Atoi(fields[1])
		if err != nil || n < 0 {
			return "", cache.TenantConfig{}, fmt.Errorf("tenant %q: bad reserved pages %q", fields[0], fields[1])
		}
		cfg.ReservedPages = n
	}
	if len(fields) == 3 {
		n, err := strconv.Atoi(fields[2])
		if err != nil || n < 0 {
			return "", cache.TenantConfig{}, fmt.Errorf("tenant %q: bad max pages %q", fields[0], fields[2])
		}
		cfg.MaxPages = n
	}
	return fields[0], cfg, nil
}
