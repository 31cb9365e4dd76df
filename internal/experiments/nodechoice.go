package experiments

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"time"

	"repro/internal/agent"
	"repro/internal/cache"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/hashring"
	"repro/internal/workload"
)

// NodeChoiceConfig parameterizes the Figure 7 sweep.
type NodeChoiceConfig struct {
	// Nodes is the tier size (paper: 10, scaling to 9).
	Nodes int
	// NodePages is each node's memory in pages; the sweep needs capacity
	// pressure, so the workload must overfill the tier.
	NodePages int
	// Keys is the keyspace, sized to overfill the tier.
	Keys uint64
	// Accesses is the number of KV touches used to heat the tier.
	Accesses int
	// ZipfS is the popularity skew.
	ZipfS float64
	// Seed drives the workload.
	Seed int64
}

// DefaultNodeChoiceConfig mirrors the paper's 10→9 sweep at simulator
// scale.
func DefaultNodeChoiceConfig() NodeChoiceConfig {
	return NodeChoiceConfig{
		Nodes:     10,
		NodePages: 4,
		Keys:      400_000, // ≈2x tier capacity: real eviction pressure
		Accesses:  1_200_000,
		ZipfS:     0.99,
		Seed:      7,
	}
}

// NodeChoiceRow is one choice's outcome: retire the node with median-
// hotness rank Rank and count what migrates.
type NodeChoiceRow struct {
	// Rank is the node's position when sorted by median hotness score
	// (1 = coldest, the ElMem choice).
	Rank int
	// Node names the retired node.
	Node string
	// Score is its weighted median score.
	Score float64
	// ItemsMigrated is the migration volume when retiring this node.
	ItemsMigrated int
}

// NodeChoiceResult is the Figure 7 dataset.
type NodeChoiceResult struct {
	// Rows holds one entry per candidate node, rank order.
	Rows []NodeChoiceRow
	// Coldest is the ElMem choice's migration volume (rank 1).
	Coldest int
	// RandomMean is the average volume over all choices (the random-
	// autoscaler expectation).
	RandomMean float64
	// Worst is the maximum volume.
	Worst int
	// RandomOverheadPercent = (RandomMean/Coldest − 1)·100 (paper: ≈57%).
	RandomOverheadPercent float64
	// WorstOverheadPercent = (Worst/Coldest − 1)·100 (paper: ≈86%).
	WorstOverheadPercent float64
}

// NodeChoice runs the Figure 7 sweep: build an identically heated tier
// per candidate, retire that candidate with the full ElMem migration, and
// count the items moved.
func NodeChoice(cfg NodeChoiceConfig) (*NodeChoiceResult, error) {
	if cfg.Nodes < 2 {
		return nil, fmt.Errorf("experiments: node choice needs >= 2 nodes")
	}
	// Score once on a reference build to fix the rank order.
	scores, err := nodeChoiceScores(cfg)
	if err != nil {
		return nil, err
	}

	out := &NodeChoiceResult{}
	total := 0
	for rank, sc := range scores {
		moved, err := nodeChoiceTrial(cfg, sc.Node)
		if err != nil {
			return nil, err
		}
		out.Rows = append(out.Rows, NodeChoiceRow{
			Rank:          rank + 1,
			Node:          sc.Node,
			Score:         sc.Score,
			ItemsMigrated: moved,
		})
		total += moved
		if moved > out.Worst {
			out.Worst = moved
		}
	}
	out.Coldest = out.Rows[0].ItemsMigrated
	out.RandomMean = float64(total) / float64(len(out.Rows))
	if out.Coldest > 0 {
		out.RandomOverheadPercent = (out.RandomMean/float64(out.Coldest) - 1) * 100
		out.WorstOverheadPercent = (float64(out.Worst)/float64(out.Coldest) - 1) * 100
	}
	return out, nil
}

// buildHeatedTier constructs the deterministic tier state shared by every
// trial: keys distributed by the ring, heated with a Zipf access stream.
func buildHeatedTier(cfg NodeChoiceConfig) (*agent.Registry, []string, *clock.Fake, error) {
	reg := agent.NewRegistry()
	clk := clock.NewFake(time.Unix(1_700_000_000, 0), 0)
	var members []string
	for i := 0; i < cfg.Nodes; i++ {
		name := fmt.Sprintf("node-%02d", i)
		cc, err := cache.New(int64(cfg.NodePages)*cache.PageSize, cache.WithClock(clk.Now))
		if err != nil {
			return nil, nil, nil, err
		}
		a, err := agent.New(name, cc, reg)
		if err != nil {
			return nil, nil, nil, err
		}
		reg.Register(a)
		members = append(members, name)
	}
	ring, err := hashring.New(members)
	if err != nil {
		return nil, nil, nil, err
	}
	// Fixed-size values pin every item to one slab class, so acceptance
	// during migration is decided purely by recency — the dimension the
	// Fig 7 sweep studies. (Multi-class interplay is exercised by the
	// trace-replay experiments.)
	rng := rand.New(rand.NewSource(cfg.Seed))
	gen, err := workload.NewGenerator(rng, cfg.Keys,
		workload.WithZipfS(cfg.ZipfS), workload.WithSizeBounds(100, 100))
	if err != nil {
		return nil, nil, nil, err
	}
	// Uniform hashing makes the nodes statistically identical, so median
	// scores would be pure noise. Production tiers develop per-node
	// hotness differences from load imbalance and hot spots (the
	// phenomenon the paper's related work — SPORE, MBal — addresses, and
	// the heterogeneity Fig 7's x-axis spans). Recreate it by thinning
	// each node's traffic: node j keeps a (j+1)/k share of its accesses,
	// so node 0's items age ~k× longer between touches and its whole
	// recency profile sits colder.
	nodeIndex := make(map[string]int, len(members))
	for j, name := range members {
		nodeIndex[name] = j
	}
	k := len(members)
	for i := 0; i < cfg.Accesses; i++ {
		req := gen.Next()
		owner, err := ring.Get(req.Key)
		if err != nil {
			continue
		}
		if j := nodeIndex[owner]; rng.Intn(k) > j {
			continue // thinned away: this node runs cooler
		}
		a, err := reg.Get(owner)
		if err != nil {
			continue
		}
		clk.Advance(time.Microsecond)
		if _, err := a.Cache().Get(req.Key); err != nil {
			value := make([]byte, req.ValueSize)
			_ = a.Cache().Set(req.Key, value)
		}
	}
	return reg, members, clk, nil
}

// nodeChoiceScores builds one tier and returns its III-C scores sorted
// coldest-first.
func nodeChoiceScores(cfg NodeChoiceConfig) ([]core.NodeScore, error) {
	reg, members, clk, err := buildHeatedTier(cfg)
	if err != nil {
		return nil, err
	}
	m, err := core.NewMaster(core.RegistryDirectory{Registry: reg}, members, core.WithClock(clk.Now))
	if err != nil {
		return nil, err
	}
	return m.ScoreNodes(context.Background())
}

// nodeChoiceTrial rebuilds the tier and retires the named node.
func nodeChoiceTrial(cfg NodeChoiceConfig, victim string) (int, error) {
	reg, members, clk, err := buildHeatedTier(cfg)
	if err != nil {
		return 0, err
	}
	m, err := core.NewMaster(core.RegistryDirectory{Registry: reg}, members, core.WithClock(clk.Now))
	if err != nil {
		return 0, err
	}
	report, err := m.ScaleInNodes(context.Background(), []string{victim})
	if err != nil {
		return 0, err
	}
	return report.ItemsMigrated, nil
}

// Render prints the Figure 7 rows and summary.
func (r *NodeChoiceResult) Render(w io.Writer) {
	fmt.Fprintln(w, "rank node score items_migrated")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%d %s %.0f %d\n", row.Rank, row.Node, row.Score, row.ItemsMigrated)
	}
	fmt.Fprintf(w, "coldest=%d random_mean=%.0f worst=%d random_overhead=%.1f%% worst_overhead=%.1f%%\n",
		r.Coldest, r.RandomMean, r.Worst, r.RandomOverheadPercent, r.WorstOverheadPercent)
}
