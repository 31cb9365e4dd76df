package invariants

// The live-traffic stage interleaves client-style reads and writes with
// the scaling action, hooked at the Master's deterministic phase
// boundaries. It validates the serve-through contract under migration:
// a value written through the ownership table's write plan must stay
// readable through its read plan at every later phase, and must sit on
// exactly the final owner once the handover settles.
//
// Determinism rules (the harness's load-bearing constraint):
//   - ops run only inside phase hooks, which fire synchronously on the
//     Master's goroutine at fixed points of the schedule;
//   - writes use BatchImport with explicit fixed timestamps (base + 1h +
//     op-index ms), so they never tick the shared logical clock;
//   - reads use Peek, which touches neither MRU order nor the clock;
//   - keys carry an "lv-" prefix and a counter, values are a pure
//     function of the key — no randomness, so gold and faulty runs that
//     reach the same phases perform identical traffic.
//
// Writes happen only at the post-data and post-handover hooks: earlier
// hooks run before the oracle's inputs are consumed, and a write there
// would perturb the FuseCache expectation. Mid-handover writes follow the
// dual-apply write plan; the duplicate on the outgoing owner is the
// Master's to remove — a surviving sender releases it once the table
// settles, a retiring one leaves the membership — so I5's
// no-double-residency check covers live keys too.

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/cache"
	"repro/internal/hashring"
)

// liveWritesPerHook is how many fresh keys each write hook stores. Small
// on purpose: live keys are MRU-hottest (future timestamps) and must not
// evict enough staged data to disturb the migration oracle.
const liveWritesPerHook = 3

// liveStage drives the interleaved traffic. All methods run on the
// Master's goroutine (phase hooks and ownership announcements are
// synchronous), so plain fields suffice.
type liveStage struct {
	caches map[string]*cache.Cache
	table  *hashring.Table
	base   time.Time
	seq    int
	// written maps each live key to its expected value hash.
	written map[string]uint64
	order   []string // written keys in write order
	// violations collects mid-run read-plan failures; checkLive reports
	// them with the final-owner audit.
	violations []string
}

func newLiveStage(caches map[string]*cache.Cache, base time.Time) *liveStage {
	return &liveStage{
		caches:  caches,
		base:    base,
		written: make(map[string]uint64),
	}
}

// OwnershipChanged tracks the Master's table announcements,
// version-monotonically like every other listener.
func (ls *liveStage) OwnershipChanged(t *hashring.Table) {
	if ls.table == nil || t.Version() > ls.table.Version() {
		ls.table = t
	}
}

// hook is the phase callback: read-check everything written so far, then
// write fresh keys at the post-move hooks.
func (ls *liveStage) hook(phase string) {
	if ls.table == nil {
		return
	}
	ls.readAll(phase)
	switch phase {
	case "data", "handover":
		ls.write(phase)
	}
}

// readAll asserts the serve-through read contract: every live key must be
// readable through the current read plan — on the primary, or, for a
// key in flight, on the retiring-owner fallback.
func (ls *liveStage) readAll(phase string) {
	for _, key := range ls.order {
		primary, fallback, err := ls.table.ReadPlan(key)
		if err != nil {
			ls.violations = append(ls.violations, fmt.Sprintf("L1: read plan for %s at %s: %v", key, phase, err))
			continue
		}
		val, ok := ls.caches[primary].Peek(key)
		if !ok && fallback != "" {
			val, ok = ls.caches[fallback].Peek(key)
		}
		if !ok {
			ls.violations = append(ls.violations, fmt.Sprintf("L1: live key %s unreadable at %s hook (plan %s/%s)", key, phase, primary, fallback))
			continue
		}
		if valueHash(val) != ls.written[key] {
			ls.violations = append(ls.violations, fmt.Sprintf("L1: live key %s torn at %s hook", key, phase))
		}
	}
}

// write stores fresh keys through the write plan: dual-applied while the
// key is in flight, single-homed otherwise. Timestamps are fixed far in
// the future so imports are tick-neutral and the keys never age below
// staged data.
func (ls *liveStage) write(phase string) {
	for i := 0; i < liveWritesPerHook; i++ {
		key := fmt.Sprintf("lv-%04d", ls.seq)
		ls.seq++
		primary, second, err := ls.table.WritePlan(key)
		if err != nil {
			ls.violations = append(ls.violations, fmt.Sprintf("L1: write plan for %s at %s: %v", key, phase, err))
			continue
		}
		val := makeValue(key, 32)
		ts := ls.base.Add(time.Hour + time.Duration(ls.seq)*time.Millisecond)
		targets := []string{primary}
		if second != "" && second != primary {
			targets = append(targets, second)
		}
		for _, node := range targets {
			pair := []cache.KV{{Key: key, Value: val, Flags: 7, LastAccess: ts}}
			if n, err := ls.caches[node].BatchImport(pair, false); err != nil || n != 1 {
				ls.violations = append(ls.violations, fmt.Sprintf("L1: write %s to %s at %s: n=%d err=%v", key, node, phase, n, err))
			}
		}
		ls.written[key] = valueHash(val)
		ls.order = append(ls.order, key)
	}
}

// checkLive is the live-consistency invariant (L1): after a completed
// action every live key holds its last written value on the final owner,
// and every mid-run read-plan assertion held.
func checkLive(rc *runCtx) []string {
	ls := rc.live
	if ls == nil {
		return nil
	}
	v := append([]string(nil), ls.violations...)
	final := rc.master.Members()
	ring, err := hashring.New(final)
	if err != nil {
		return append(v, fmt.Sprintf("L1: final membership %v invalid: %v", final, err))
	}
	keys := append([]string(nil), ls.order...)
	sort.Strings(keys)
	for _, key := range keys {
		owner, err := ring.Get(key)
		if err != nil {
			v = append(v, fmt.Sprintf("L1: final owner of %s: %v", key, err))
			continue
		}
		val, ok := rc.caches[owner].Peek(key)
		if !ok {
			v = append(v, fmt.Sprintf("L1: live key %s missing from final owner %s", key, owner))
			continue
		}
		if valueHash(val) != ls.written[key] {
			v = append(v, fmt.Sprintf("L1: live key %s on %s lost its last write", key, owner))
		}
	}
	return v
}
