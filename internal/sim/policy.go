package sim

import (
	"context"
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/agent"
	"repro/internal/fusecache"
)

// Policy selects a migration strategy. The four are the ones the paper
// compares (Section V-B4):
//
//   - Baseline: scale immediately with no migration (cold cache).
//   - Naive: migrate the top (n−x)/n fraction of items off the retiring
//     nodes, assuming per-node hotness distributions are interchangeable —
//     uncoordinated imports can evict hotter items on the receivers.
//   - CacheScale: no pre-migration; after the flip the retiring nodes form
//     a secondary cache consulted on primary misses, with hits migrated to
//     the primary, until the secondary is discarded.
//   - ElMem: the paper's three-phase FuseCache migration, run by
//     core.Master.
type Policy int

// The four policies of Section V.
const (
	Baseline Policy = iota + 1
	Naive
	CacheScale
	ElMem
)

var policyNames = map[Policy]string{
	Baseline:   "baseline",
	Naive:      "naive",
	CacheScale: "cachescale",
	ElMem:      "elmem",
}

// String returns the policy's canonical name.
func (p Policy) String() string {
	if s, ok := policyNames[p]; ok {
		return s
	}
	return fmt.Sprintf("Policy(%d)", int(p))
}

// pickRandomRetiring chooses x of members, 1 ≤ x < len(members), to
// retire at random — the node choice the paper attributes to typical
// autoscalers (Section V-B3's comparison point for Fig 7).
func pickRandomRetiring(rng *rand.Rand, members []string, x int) []string {
	perm := rng.Perm(len(members))
	out := make([]string, x)
	for i := 0; i < x; i++ {
		out[i] = members[perm[i]]
	}
	sort.Strings(out)
	return out
}

// naiveScaleIn migrates the top fraction of every retiring node's items to
// their hash targets among the retained nodes. fraction is (n−x)/n for a
// scale-in of x out of n nodes. Items are pushed with SendData, so on a
// full receiver they evict the receiver's MRU tail — even when that tail
// is hotter, which is exactly Naive's flaw. round names the action to the
// agents, as core.Master's rounds do. Returns the number of migrated
// items.
func naiveScaleIn(ctx context.Context, reg *agent.Registry, round uint64, retiring, retained []string, fraction float64) (int, error) {
	migrated := 0
	for _, node := range retiring {
		if err := ctx.Err(); err != nil {
			return migrated, err
		}
		src, err := reg.Get(node)
		if err != nil {
			return migrated, fmt.Errorf("naive: %w", err)
		}
		// SendData ships phase-1 picks; Naive has no phase 2, so it picks
		// without offering anything. offers[i] holds, per class, the stamps
		// of the items owner retained[i] gets, hottest first.
		offers, err := src.Pick(ctx, round, retained)
		if err != nil {
			return migrated, fmt.Errorf("naive: %w", err)
		}
		// The head fraction of every class, merged across owners: FuseCache
		// over this one node's lists tells how many of it each owner gets,
		// and SendData ships that many of the owner's picks, hottest first.
		takes := make([]map[int]int, len(retained))
		cc := src.Cache()
		lists := make([]fusecache.List, len(retained))
		for _, classID := range cc.PopulatedClasses() {
			take := int(float64(cc.ClassLen(classID)) * fraction)
			if take == 0 {
				continue
			}
			for i := range offers {
				lists[i] = offers[i][classID]
			}
			res, err := fusecache.TopN(lists, take)
			if err != nil {
				return migrated, fmt.Errorf("naive %s class %d: %w", node, classID, err)
			}
			for i, n := range res.Take {
				if n == 0 {
					continue
				}
				if takes[i] == nil {
					takes[i] = make(map[int]int)
				}
				takes[i][classID] = n
			}
		}
		for i, tgt := range retained {
			if takes[i] == nil {
				continue
			}
			stats, err := src.SendData(ctx, round, tgt, takes[i])
			if err != nil {
				return migrated, fmt.Errorf("naive %s→%s: %w", node, tgt, err)
			}
			migrated += stats.Pairs
		}
	}
	return migrated, nil
}
