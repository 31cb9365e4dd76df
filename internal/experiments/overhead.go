package experiments

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"time"

	"repro/internal/agent"
	"repro/internal/agentrpc"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/fusecache"
	"repro/internal/hashring"
	"repro/internal/stackdist"
	"repro/internal/trace"
	"repro/internal/workload"
)

// OverheadResult is the Section V-B2 migration-overhead breakdown: per
// phase, the measured wall time of a real scale-in over localhost TCP.
type OverheadResult struct {
	// Nodes and Items describe the cluster.
	Nodes int
	Items int
	// ItemsMigrated is the phase-3 volume.
	ItemsMigrated int
	// Timings holds the phase breakdown in execution order.
	Timings []core.PhaseTiming
	// NodeTimings holds the per-node operations inside each phase, so the
	// parallel pipeline's slowest pair is visible next to the phase total.
	NodeTimings []core.NodeOpTiming
	// Retries counts RPC attempts beyond the first across all phases.
	Retries int
	// Total is the end-to-end migration time.
	Total time.Duration
}

// Overhead measures the three-phase migration on a real TCP cluster: n
// nodes on localhost, itemsPerNode small KV pairs each, one node retired
// with the full ElMem flow.
func Overhead(nodes, itemsPerNode int) (*OverheadResult, error) {
	if nodes < 2 || itemsPerNode < 1 {
		return nil, fmt.Errorf("experiments: overhead needs >= 2 nodes and >= 1 item")
	}
	book := agentrpc.NewAddressBook()
	defer book.Close()
	var (
		members []string
		servers []*agentrpc.Server
	)
	defer func() {
		for _, s := range servers {
			_ = s.Close()
		}
	}()
	for i := 0; i < nodes; i++ {
		name := fmt.Sprintf("node-%02d", i)
		cc, err := cache.New(8*cache.PageSize, cache.WithGrowthFactor(1.25))
		if err != nil {
			return nil, err
		}
		a, err := agent.New(name, cc, book)
		if err != nil {
			return nil, err
		}
		srv, err := agentrpc.Serve("127.0.0.1:0", a, nil)
		if err != nil {
			return nil, err
		}
		servers = append(servers, srv)
		book.Register(name, srv.Addr())
		members = append(members, name)
	}

	// Populate by ring so placement matches client behaviour.
	ring, err := hashring.New(members)
	if err != nil {
		return nil, err
	}
	return overheadPopulated(book, members, ring, itemsPerNode)
}

// overheadPopulated fills the cluster over the wire and runs the timed
// scale-in.
func overheadPopulated(book *agentrpc.AddressBook, members []string, ring *hashring.Ring, itemsPerNode int) (*OverheadResult, error) {
	// Push data through the agent RPC import path, which exercises the
	// same wire format as migration.
	rng := rand.New(rand.NewSource(11))
	totalItems := itemsPerNode * len(members)
	perNode := make(map[string][]cache.KV)
	base := time.Unix(1_700_000_000, 0)
	for i := 0; i < totalItems; i++ {
		key := workload.KeyName(uint64(i))
		owner, err := ring.Get(key)
		if err != nil {
			return nil, err
		}
		value := make([]byte, rng.Intn(100)+10)
		perNode[owner] = append(perNode[owner], cache.KV{
			Key:        key,
			Value:      value,
			LastAccess: base.Add(time.Duration(i) * time.Microsecond),
		})
	}
	for node, pairs := range perNode {
		peer, err := book.Peer(node)
		if err != nil {
			return nil, err
		}
		// pairs are in insertion (coldest-first) order, as a session expects.
		sess, err := peer.OpenImport(context.Background(), "seed", 1, 0, 1)
		if err != nil {
			return nil, err
		}
		if err := sess.Send(context.Background(), 1, pairs); err != nil {
			return nil, err
		}
		if _, err := sess.Close(context.Background()); err != nil {
			return nil, err
		}
	}

	master, err := core.NewMaster(book, members)
	if err != nil {
		return nil, err
	}
	report, err := master.ScaleIn(context.Background(), 1)
	if err != nil {
		return nil, err
	}
	out := &OverheadResult{
		Nodes:         len(members),
		Items:         totalItems,
		ItemsMigrated: report.ItemsMigrated,
		Timings:       report.Timings,
		NodeTimings:   report.NodeTimings,
		Retries:       report.Retries,
	}
	for _, t := range report.Timings {
		out.Total += t.Duration
	}
	return out, nil
}

// Render prints the overhead table.
func (r *OverheadResult) Render(w io.Writer) {
	fmt.Fprintf(w, "# %d nodes, %d items, %d migrated (localhost TCP)\n", r.Nodes, r.Items, r.ItemsMigrated)
	fmt.Fprintln(w, "phase duration")
	for _, t := range r.Timings {
		fmt.Fprintf(w, "%s %v\n", t.Phase, t.Duration.Round(10*time.Microsecond))
	}
	fmt.Fprintf(w, "total %v (retries %d)\n", r.Total.Round(10*time.Microsecond), r.Retries)
	if len(r.NodeTimings) > 0 {
		fmt.Fprintln(w, "phase node target duration attempts")
		for _, nt := range r.NodeTimings {
			target := nt.Target
			if target == "" {
				target = "-"
			}
			fmt.Fprintf(w, "%s %s %s %v %d\n", nt.Phase, nt.Node, target,
				nt.Duration.Round(10*time.Microsecond), nt.Attempts)
		}
	}
}

// FuseCacheRow is one (k, n) point of the Section IV-B complexity
// comparison.
type FuseCacheRow struct {
	// K is the list count; N the selection size (each list holds N items).
	K, N int
	// Times per algorithm.
	FuseCache time.Duration
	HeapMerge time.Duration
	KWay      time.Duration
	MergeSort time.Duration
	// Comparisons is FuseCache's probe count.
	Comparisons int
}

// FuseCacheComplexity sweeps n and k over the four selection algorithms.
func FuseCacheComplexity(ks, ns []int) ([]FuseCacheRow, error) {
	var rows []FuseCacheRow
	for _, k := range ks {
		for _, n := range ns {
			lists := syntheticLists(k, n, 3)
			row := FuseCacheRow{K: k, N: n}

			t0 := time.Now()
			_, stats, err := fusecache.TopNStats(lists, n)
			if err != nil {
				return nil, err
			}
			row.FuseCache = time.Since(t0)
			row.Comparisons = stats.Comparisons

			t0 = time.Now()
			if _, err := fusecache.SelectHeap(lists, n); err != nil {
				return nil, err
			}
			row.HeapMerge = time.Since(t0)

			t0 = time.Now()
			if _, err := fusecache.SelectKWay(lists, n); err != nil {
				return nil, err
			}
			row.KWay = time.Since(t0)

			t0 = time.Now()
			if _, err := fusecache.SelectMergeSort(lists, n); err != nil {
				return nil, err
			}
			row.MergeSort = time.Since(t0)

			rows = append(rows, row)
		}
	}
	return rows, nil
}

// syntheticLists builds k descending lists of n random hotness values.
func syntheticLists(k, n int, seed int64) []fusecache.List {
	rng := rand.New(rand.NewSource(seed))
	lists := make([]fusecache.List, k)
	for i := range lists {
		l := make(fusecache.List, n)
		for j := range l {
			l[j] = rng.Int63()
		}
		sortDescending(l)
		lists[i] = l
	}
	return lists
}

func sortDescending(l fusecache.List) {
	sort.Slice(l, func(i, j int) bool { return l[i] > l[j] })
}

// RenderFuseCacheRows prints the complexity table.
func RenderFuseCacheRows(w io.Writer, rows []FuseCacheRow) {
	fmt.Fprintln(w, "k n fusecache heap kway mergesort fc_comparisons")
	for _, r := range rows {
		fmt.Fprintf(w, "%d %d %v %v %v %v %d\n",
			r.K, r.N, r.FuseCache, r.HeapMerge, r.KWay, r.MergeSort, r.Comparisons)
	}
}

// CostResult is the Section II-B cost/energy table.
type CostResult struct {
	// AppPowerW / CachePowerW are the modeled peak draws.
	AppPowerW   float64
	CachePowerW float64
	// PowerOverheadPercent ≈ 47, CostOverheadPercent ≈ 66 in the paper.
	PowerOverheadPercent float64
	CostOverheadPercent  float64
}

// Cost evaluates the paper's cost/energy analysis.
func Cost() CostResult {
	m := costmodel.DefaultPowerModel
	return CostResult{
		AppPowerW:            m.PeakPower(costmodel.AppNode),
		CachePowerW:          m.PeakPower(costmodel.MemcachedNode),
		PowerOverheadPercent: m.PowerOverheadPercent(costmodel.AppNode, costmodel.MemcachedNode),
		CostOverheadPercent:  costmodel.CostOverheadPercent(costmodel.AppNode, costmodel.MemcachedNode),
	}
}

// Render prints the cost table.
func (r CostResult) Render(w io.Writer) {
	fmt.Fprintf(w, "app_node_power_w %.0f\n", r.AppPowerW)
	fmt.Fprintf(w, "memcached_node_power_w %.0f\n", r.CachePowerW)
	fmt.Fprintf(w, "power_overhead_percent %.1f (paper: 47)\n", r.PowerOverheadPercent)
	fmt.Fprintf(w, "cost_overhead_percent %.1f (paper: 66)\n", r.CostOverheadPercent)
}

// HeadroomRow is one trace's elasticity headroom (Section II-C).
type HeadroomRow struct {
	// Trace names the demand trace.
	Trace trace.Name
	// PeakNodes / MeanNodes give static vs elastic provisioning.
	PeakNodes int
	MeanNodes float64
	// SavingsPercent is the node-hour reduction (paper band: 30–70%).
	SavingsPercent float64
}

// Headroom estimates, per trace, how many nodes a perfectly elastic tier
// needs per interval: the stack-distance memory for the Eq. (1) hit-rate
// bound at each interval's request rate, normalized by node capacity.
func Headroom(itemsPerNode int, dbCapacity, peakKVRate float64) ([]HeadroomRow, error) {
	if itemsPerNode < 1 || dbCapacity <= 0 || peakKVRate <= 0 {
		return nil, fmt.Errorf("experiments: invalid headroom parameters")
	}
	var rows []HeadroomRow
	for _, name := range trace.All() {
		tr, err := trace.Generate(name, trace.Options{})
		if err != nil {
			return nil, err
		}
		// One stack-distance profile per trace over a synthetic stream;
		// the demand level scales the request rate, not the popularity.
		rng := rand.New(rand.NewSource(int64(name)))
		gen, err := workload.NewGenerator(rng, 200_000, workload.WithZipfS(0.99))
		if err != nil {
			return nil, err
		}
		prof := stackdist.NewProfiler()
		for i := 0; i < 400_000; i++ {
			prof.Record(gen.Next().Key)
		}
		curve := prof.Curve()

		var counts []int
		peak := 0
		step := tr.Duration() / 48
		for at := time.Duration(0); at <= tr.Duration(); at += step {
			r := tr.RateAt(at) * peakKVRate
			pMin := 1 - dbCapacity/r
			nodes := 1
			if pMin > 0 {
				if items, ok := curve.ItemsForHitRate(pMin); ok {
					nodes = (items + itemsPerNode - 1) / itemsPerNode
				} else {
					nodes = peakNodesFor(curve, itemsPerNode)
				}
			}
			if nodes < 1 {
				nodes = 1
			}
			counts = append(counts, nodes)
			if nodes > peak {
				peak = nodes
			}
		}
		tc, err := costmodel.ElasticSavings(counts, costmodel.MemcachedNode, costmodel.DefaultPowerModel)
		if err != nil {
			return nil, err
		}
		rows = append(rows, HeadroomRow{
			Trace:          name,
			PeakNodes:      peak,
			MeanNodes:      tc.MeanNodes,
			SavingsPercent: tc.SavingsPercent,
		})
	}
	return rows, nil
}

// peakNodesFor sizes the tier for the curve's maximum useful capacity.
func peakNodesFor(curve *stackdist.Curve, itemsPerNode int) int {
	items, ok := curve.ItemsForHitRate(curve.MaxHitRate() * 0.999)
	if !ok || items < 1 {
		return 1
	}
	return (items + itemsPerNode - 1) / itemsPerNode
}

// RenderHeadroom prints the elasticity-headroom table.
func RenderHeadroom(w io.Writer, rows []HeadroomRow) {
	fmt.Fprintln(w, "trace peak_nodes mean_nodes savings_percent")
	for _, r := range rows {
		fmt.Fprintf(w, "%s %d %.2f %.1f\n", r.Trace, r.PeakNodes, r.MeanNodes, r.SavingsPercent)
	}
}
