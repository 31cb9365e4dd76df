// Elastic cluster: a live ElMem deployment on localhost TCP — Memcached
// servers, Agents, a Master, and a consistent-hashing client. A workload
// warms the tier; the Master performs a live scale-in with the three-phase
// migration; the client's membership flips; and the hit rate before and
// after shows the migration preserved the hot set.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"repro/internal/agent"
	"repro/internal/agentrpc"
	"repro/internal/cache"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/workload"
)

type node struct {
	name     string
	cache    *cache.Cache
	server   *server.Server
	agentRPC *agentrpc.Server
}

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	const nodes = 4
	book := agentrpc.NewAddressBook()
	defer book.Close()

	// Start nodes: a Memcached TCP server plus an Agent RPC endpoint each.
	var (
		pool    []*node
		members []string // client-facing cache addresses double as names
	)
	defer func() {
		for _, n := range pool {
			_ = n.server.Close()
			_ = n.agentRPC.Close()
		}
	}()
	for i := 0; i < nodes; i++ {
		c, err := cache.New(4 * cache.PageSize)
		if err != nil {
			return err
		}
		srv, err := server.Listen("127.0.0.1:0", c)
		if err != nil {
			return err
		}
		name := srv.Addr()
		ag, err := agent.New(name, c, book)
		if err != nil {
			return err
		}
		rpc, err := agentrpc.Serve("127.0.0.1:0", ag, nil)
		if err != nil {
			return err
		}
		book.Register(name, rpc.Addr())
		pool = append(pool, &node{name: name, cache: c, server: srv, agentRPC: rpc})
		members = append(members, name)
		fmt.Printf("node %d: memcached %s, agent %s\n", i, srv.Addr(), rpc.Addr())
	}

	// A client over the full membership; the Master will flip it on scaling.
	cl, err := client.New(members)
	if err != nil {
		return err
	}
	defer cl.Close()

	master, err := core.NewMaster(book, members)
	if err != nil {
		return err
	}
	master.Subscribe(cl)

	// Warm the tier with a Zipf workload through the real client path.
	rng := rand.New(rand.NewSource(42))
	gen, err := workload.NewGenerator(rng, 30_000, workload.WithZipfS(1.1),
		workload.WithSizeBounds(1, 128))
	if err != nil {
		return err
	}
	warm := func(requests int) (hits, total int) {
		for i := 0; i < requests; i++ {
			req := gen.Next()
			if _, ok, err := cl.Get(req.Key); err == nil && ok {
				hits++
			} else {
				value := make([]byte, req.ValueSize)
				_ = cl.Set(req.Key, value)
			}
			total++
		}
		return hits, total
	}
	warm(60_000)
	hits, total := warm(10_000)
	fmt.Printf("\nwarm tier hit rate: %.1f%% over %d requests\n", 100*float64(hits)/float64(total), total)

	// Live scale-in: the Master scores, migrates, flips the client.
	report, err := master.ScaleIn(context.Background(), 1)
	if err != nil {
		return err
	}
	fmt.Printf("scaled in: retired %s, migrated %d items over TCP\n",
		report.Retiring[0], report.ItemsMigrated)
	for _, t := range report.Timings {
		fmt.Printf("  phase %-10s %v\n", t.Phase, t.Duration)
	}

	// The same workload immediately after: the hot set survived.
	hits, total = warm(10_000)
	fmt.Printf("post-scale hit rate: %.1f%% over %d requests (3 nodes)\n",
		100*float64(hits)/float64(total), total)
	fmt.Printf("client membership: %v\n", cl.Members())
	return nil
}
