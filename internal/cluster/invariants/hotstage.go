package invariants

import (
	"fmt"
	"sort"

	"repro/internal/agent"
	"repro/internal/cache"
	"repro/internal/hashring"
	"repro/internal/hotkey"
)

// hotStage is the staged hot-key replication state threaded through a
// harness run: one replicator per node wired to an in-process pusher,
// plus the promoted keys and their expected fate across the membership
// flip. Staging is purely deterministic (first-match key scan, no rng),
// so gold and faulty runs stage identically.
type hotStage struct {
	reps   map[string]*hotkey.Replicator
	pusher *hotkey.LocalPusher
	// table is the pre-action ownership table every replicator starts on.
	table *hashring.Table
	// survive maps promoted key → home node whose promotion must outlive
	// the flip (the home stays a member and keeps owning the key).
	survive map[string]string
	// dropped maps promoted key → home node that must drop the promotion
	// at the flip (scale-out remaps the key to the new node).
	dropped map[string]string
	// victimHeld lists promoted keys whose replica copy sits on the
	// scale-in victim — copies the owned-filter must keep the retiring
	// agent from double-shipping.
	victimHeld []string
}

// hotPromotionsPerKind bounds how many keys each staged situation gets.
const hotPromotionsPerKind = 2

// stageHotKeys builds a replicator per current node, installs the
// owned-filters on the agents, and force-promotes a handful of
// deterministically chosen keys so the scaling action runs with live
// replicated state. Promotion homes are always nodes that remain members:
// for scale-in the interesting copies are the ones the VICTIM holds as a
// replica (its agent must not ship them when it retires); for scale-out
// they are the promoted keys that remap to the newcomer (the home ships
// its owned copy and must drop the promotion at the flip).
func stageHotKeys(names []string, caches map[string]*cache.Cache, agents map[string]*agent.Agent,
	scaleOut bool, victim, added string, totalItems int) (*hotStage, error) {
	table, err := hashring.NewTable(names)
	if err != nil {
		return nil, err
	}
	hs := &hotStage{
		reps:    make(map[string]*hotkey.Replicator, len(names)+1),
		pusher:  hotkey.NewLocalPusher(),
		table:   table,
		survive: make(map[string]string),
		dropped: make(map[string]string),
	}
	for _, name := range names {
		hs.addNode(name, caches[name], agents[name])
	}

	ring, err := hashring.New(names)
	if err != nil {
		return nil, err
	}
	var postRing *hashring.Ring
	if scaleOut {
		postRing, err = hashring.New(append(sortedCopy(names), added))
	} else {
		var retained []string
		for _, n := range names {
			if n != victim {
				retained = append(retained, n)
			}
		}
		postRing, err = hashring.New(retained)
	}
	if err != nil {
		return nil, err
	}

	for i := 0; i < totalItems; i++ {
		key := fmt.Sprintf("k%05d", i)
		home, err := ring.Get(key)
		if err != nil {
			return nil, err
		}
		if !scaleOut && home == victim {
			continue // homes must survive the action
		}
		set, err := ring.GetN(key, 2)
		if err != nil || len(set) < 2 {
			continue
		}
		replica := set[1]

		if scaleOut {
			postOwner, err := postRing.Get(key)
			if err != nil {
				return nil, err
			}
			switch {
			case postOwner == added && len(hs.dropped) < hotPromotionsPerKind:
				if err := hs.reps[home].Promote(key); err != nil {
					return nil, fmt.Errorf("stage promote %s on %s: %w", key, home, err)
				}
				hs.dropped[key] = home
			case postOwner != added && len(hs.survive) < hotPromotionsPerKind:
				if err := hs.reps[home].Promote(key); err != nil {
					return nil, fmt.Errorf("stage promote %s on %s: %w", key, home, err)
				}
				hs.survive[key] = home
			}
			if len(hs.dropped) >= hotPromotionsPerKind && len(hs.survive) >= hotPromotionsPerKind {
				break
			}
			continue
		}

		switch {
		case replica == victim && len(hs.victimHeld) < hotPromotionsPerKind:
			if err := hs.reps[home].Promote(key); err != nil {
				return nil, fmt.Errorf("stage promote %s on %s: %w", key, home, err)
			}
			hs.survive[key] = home
			hs.victimHeld = append(hs.victimHeld, key)
		case replica != victim && len(hs.survive)-len(hs.victimHeld) < hotPromotionsPerKind:
			if err := hs.reps[home].Promote(key); err != nil {
				return nil, fmt.Errorf("stage promote %s on %s: %w", key, home, err)
			}
			hs.survive[key] = home
		}
		if len(hs.victimHeld) >= hotPromotionsPerKind &&
			len(hs.survive) >= 2*hotPromotionsPerKind {
			break
		}
	}
	return hs, nil
}

// addNode wires one node into the stage: a replicator over the node's
// cache on the pre-action table, a pusher registration so it can receive
// replica copies, and the owned-filter on its agent.
func (hs *hotStage) addNode(name string, c *cache.Cache, ag *agent.Agent) {
	rep := hotkey.New(name, c, hs.pusher, hotkey.Config{Replicas: 2})
	rep.OwnershipChanged(hs.table)
	hs.pusher.Register(name, hotkey.LocalNode{Store: c, Rep: rep})
	ag.SetOwnedFilter(rep.IsOwned)
	hs.reps[name] = rep
}

// owned returns the node's migration-ownership filter (nil = everything).
func (hs *hotStage) owned(name string) func(string) bool {
	if hs == nil {
		return nil
	}
	if rep := hs.reps[name]; rep != nil {
		return rep.IsOwned
	}
	return nil
}

// nodeNames lists the staged nodes sorted, for deterministic iteration.
func (hs *hotStage) nodeNames() []string {
	out := make([]string, 0, len(hs.reps))
	for name := range hs.reps {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// staged counts the promotions installed.
func (hs *hotStage) staged() int { return len(hs.survive) + len(hs.dropped) }

// checkHotKeys verifies the replication properties around the flip:
// promotions whose home keeps owning the key survive the state-only flip,
// promotions remapped to the newcomer are dropped, and an aborted action
// (no flip) leaves every staged promotion in place.
func checkHotKeys(rc *runCtx) []string {
	hs := rc.hot
	if hs == nil {
		return nil
	}
	promoted := func(home, key string) bool {
		for _, k := range hs.reps[home].Promoted() {
			if k == key {
				return true
			}
		}
		return false
	}
	var v []string
	if rc.runErr != nil {
		for _, key := range sortedKeys(hs.survive) {
			if !promoted(hs.survive[key], key) {
				v = append(v, fmt.Sprintf("HK: aborted run lost promotion of %s on %s", key, hs.survive[key]))
			}
		}
		for _, key := range sortedKeys(hs.dropped) {
			if !promoted(hs.dropped[key], key) {
				v = append(v, fmt.Sprintf("HK: aborted run lost promotion of %s on %s", key, hs.dropped[key]))
			}
		}
		return v
	}
	for _, key := range sortedKeys(hs.survive) {
		if !promoted(hs.survive[key], key) {
			v = append(v, fmt.Sprintf("HK: promotion of %s on %s did not survive the membership flip", key, hs.survive[key]))
		}
	}
	for _, key := range sortedKeys(hs.dropped) {
		if promoted(hs.dropped[key], key) {
			v = append(v, fmt.Sprintf("HK: %s on %s remapped to the new node but is still promoted", key, hs.dropped[key]))
		}
	}
	return v
}

func sortedKeys(m map[string]string) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
