// Package policy implements the migration strategies the ElMem paper
// compares (Section V-B4):
//
//   - Baseline: scale immediately with no migration (cold cache).
//   - Naive: migrate the top (n−x)/n fraction of items off the retiring
//     nodes, assuming per-node hotness distributions are interchangeable —
//     uncoordinated imports can evict hotter items on the receivers.
//   - CacheScale: no pre-migration; after the flip the retiring nodes form
//     a secondary cache consulted on primary misses, with hits migrated to
//     the primary, until the secondary is discarded (~2 minutes).
//   - ElMem: the paper's three-phase FuseCache migration, implemented by
//     core.Master; this package only names it.
package policy

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"repro/internal/agent"
	"repro/internal/hashring"
)

// Kind selects a migration policy.
type Kind int

// The four policies of Section V.
const (
	Baseline Kind = iota + 1
	Naive
	CacheScale
	ElMem
)

var kindNames = map[Kind]string{
	Baseline:   "baseline",
	Naive:      "naive",
	CacheScale: "cachescale",
	ElMem:      "elmem",
}

// String returns the policy's canonical name.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// ParseKind resolves a policy name.
func ParseKind(s string) (Kind, error) {
	for k, name := range kindNames {
		if name == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("policy: unknown policy %q", s)
}

// All returns the four policies in comparison order.
func All() []Kind { return []Kind{Baseline, Naive, CacheScale, ElMem} }

// ErrBadRequest reports invalid migration parameters.
var ErrBadRequest = errors.New("policy: invalid migration request")

// PickRandomRetiring chooses x random members to retire — the node choice
// the paper attributes to typical autoscalers (Section V-B3's comparison
// point for Fig 7).
func PickRandomRetiring(rng *rand.Rand, members []string, x int) ([]string, error) {
	if x < 1 || x >= len(members) {
		return nil, fmt.Errorf("%w: retire %d of %d", ErrBadRequest, x, len(members))
	}
	perm := rng.Perm(len(members))
	out := make([]string, x)
	for i := 0; i < x; i++ {
		out[i] = members[perm[i]]
	}
	sort.Strings(out)
	return out, nil
}

// NaiveScaleIn migrates the top fraction of every retiring node's items to
// their hash targets among the retained nodes. fraction is typically
// (n−x)/n for a scale-in of x out of n nodes. Items are pushed with
// SendData, so on a full receiver they evict the receiver's MRU tail —
// even when that tail is hotter, which is exactly Naive's flaw. Returns
// the number of migrated items.
func NaiveScaleIn(ctx context.Context, reg *agent.Registry, retiring, retained []string, fraction float64) (int, error) {
	if fraction < 0 || fraction > 1 {
		return 0, fmt.Errorf("%w: fraction %v", ErrBadRequest, fraction)
	}
	if len(retained) == 0 {
		return 0, fmt.Errorf("%w: no retained nodes", ErrBadRequest)
	}
	ring, err := hashring.New(retained)
	if err != nil {
		return 0, err
	}
	migrated := 0
	for _, node := range retiring {
		if err := ctx.Err(); err != nil {
			return migrated, err
		}
		src, err := reg.Get(node)
		if err != nil {
			return migrated, fmt.Errorf("naive: %w", err)
		}
		cc := src.Cache()
		// SendData ships phase-1 picks; Naive has no phase 2, so it picks
		// without offering anything.
		if _, err := src.Pick(ctx, retained); err != nil {
			return migrated, fmt.Errorf("naive: %w", err)
		}
		// Per target, collect the head fraction of every class.
		perTarget := make(map[string][]struct {
			classID int
			count   int
		})
		for _, classID := range cc.PopulatedClasses() {
			take := int(float64(cc.ClassLen(classID)) * fraction)
			if take == 0 {
				continue
			}
			metas, err := cc.TopMeta(classID, take, nil)
			if err != nil {
				return migrated, err
			}
			// Count the head items per owner; SendData ships that many of
			// the owner's picks, hottest first: the same items.
			byOwner := make(map[string]int)
			for _, m := range metas {
				owner, err := ring.Get(m.Key)
				if err != nil {
					continue
				}
				byOwner[owner]++
			}
			for owner, count := range byOwner {
				perTarget[owner] = append(perTarget[owner], struct {
					classID int
					count   int
				}{classID: classID, count: count})
			}
		}
		targets := make([]string, 0, len(perTarget))
		for tgt := range perTarget {
			targets = append(targets, tgt)
		}
		sort.Strings(targets)
		for _, tgt := range targets {
			takes := make(map[int]int, len(perTarget[tgt]))
			for _, tc := range perTarget[tgt] {
				takes[tc.classID] = tc.count
			}
			stats, err := src.SendData(ctx, tgt, takes, retained)
			if err != nil {
				return migrated, fmt.Errorf("naive %s→%s: %w", node, tgt, err)
			}
			migrated += stats.Pairs
		}
	}
	return migrated, nil
}

// Secondary models CacheScale's transition state: after the membership
// flip, the retiring nodes serve as a secondary cache for misses until the
// deadline passes.
type Secondary struct {
	// Ring routes keys over the retiring (secondary) nodes.
	Ring *hashring.Ring
	// Nodes lists the secondary members.
	Nodes []string
	// Deadline is when the secondary is discarded.
	Deadline time.Time
}

// NewSecondary builds the CacheScale secondary over the retiring nodes.
func NewSecondary(retiring []string, deadline time.Time) (*Secondary, error) {
	if len(retiring) == 0 {
		return nil, fmt.Errorf("%w: empty secondary", ErrBadRequest)
	}
	ring, err := hashring.New(retiring)
	if err != nil {
		return nil, err
	}
	return &Secondary{
		Ring:     ring,
		Nodes:    append([]string(nil), retiring...),
		Deadline: deadline,
	}, nil
}

// Active reports whether the secondary still serves at time t.
func (s *Secondary) Active(t time.Time) bool {
	return s != nil && t.Before(s.Deadline)
}

// Lookup tries a key in the secondary at time t: on hit it returns the
// value and removes the item from the secondary node (the caller migrates
// it to the primary), implementing CacheScale's demand-driven migration.
func (s *Secondary) Lookup(reg *agent.Registry, key string, t time.Time) ([]byte, bool) {
	if !s.Active(t) {
		return nil, false
	}
	owner, err := s.Ring.Get(key)
	if err != nil {
		return nil, false
	}
	ag, err := reg.Get(owner)
	if err != nil {
		return nil, false
	}
	value, ok := ag.Cache().Peek(key)
	if !ok {
		return nil, false
	}
	_ = ag.Cache().Delete(key)
	return value, true
}
