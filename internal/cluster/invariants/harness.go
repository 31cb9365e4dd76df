// Package invariants is the chaos harness: it runs ElMem scaling actions
// on a deterministic in-process cluster under a seeded faultnet schedule
// and checks the paper's correctness properties afterwards.
//
// Determinism is the load-bearing design constraint — a failing seed must
// reproduce exactly:
//
//   - nodes carry logical names ("n00", "n01", …) rather than TCP
//     addresses, so consistent-hash placement cannot shift with ephemeral
//     ports between runs;
//   - every cache and the Master share one logical clock (a counter, not
//     wall time), so MRU timestamps are a pure function of operation
//     order;
//   - the Master runs with a worker limit of 1, serializing per-phase
//     fan-out, and all transports are in-process (agent.Registry wrapped
//     by faultnet);
//   - the fault plan itself is drawn from the seeded rng, and the gold
//     (fault-free) run consumes the rng identically so both runs stage
//     the same cluster, pick the same action, and differ only in whether
//     the schedule is enabled.
//
// The five invariants checked after each run are described in
// invariants.go; the sweep driver in sweep.go adds the cross-run checks
// (same seed twice → identical event log and final state; faulty
// completed state == gold state).
package invariants

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/agent"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/faultnet"
	"repro/internal/hashring"
	"repro/internal/taskgroup"
)

// cacheBytes sizes each node's cache: 16 pages → two shards, so the MRU
// order checks exercise the sharded import path.
const cacheBytes = 16 * cache.PageSize

// Config selects one harness run.
type Config struct {
	// Seed drives everything: population, action choice, fault plan, and
	// the faultnet schedule.
	Seed int64
	// Nodes is the starting membership size (default 4, minimum 3).
	Nodes int
	// Items is the number of keys placed per node on average (default 48).
	Items int
	// Faults enables the fault schedule. A gold run (Faults=false) stages
	// the identical cluster and action with injection disabled.
	Faults bool
}

func (c Config) withDefaults() Config {
	if c.Nodes < 3 {
		c.Nodes = 4
	}
	if c.Items <= 0 {
		c.Items = 48
	}
	return c
}

// Result is one run's outcome plus everything the sweep needs to compare
// runs: the canonical fault-event log and a digest of the final cluster
// state.
type Result struct {
	Seed      int64
	Direction string // "in" or "out"
	// Completed is true when the scaling action finished; otherwise
	// Aborted/Err describe the clean failure.
	Completed bool
	Aborted   string
	Err       string
	// ItemsMigrated echoes the report; Injected counts non-pass decisions.
	ItemsMigrated int
	Retries       int
	Injected      int
	// HotStaged counts the hot-key promotions staged before the action —
	// replicated state the migration ran against.
	HotStaged int
	// LiveWrites counts the live-stage keys written at phase hooks — the
	// client traffic interleaved with the action.
	LiveWrites int
	// EventLog is the canonical faultnet fingerprint (empty for gold runs).
	EventLog string
	// StateHash digests (membership, every resident item) after the run.
	StateHash string
	// Violations lists every invariant breach found; empty means clean.
	Violations []string
}

// Run stages the cluster for cfg, executes the scaling action under the
// schedule, and checks the invariants. The returned error covers harness
// infrastructure failures only — scaling aborts and invariant breaches
// are reported in the Result.
func Run(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))

	// Logical clock: one tick per observation, shared by caches and
	// Master, so timestamps depend on operation order alone.
	var tick atomic.Int64
	base := time.Unix(1_700_000_000, 0)
	clock := func() time.Time {
		return base.Add(time.Duration(tick.Add(1)) * time.Millisecond)
	}

	netw := faultnet.New(cfg.Seed)
	netw.SetEnabled(false) // staging is always fault-free

	names := make([]string, cfg.Nodes)
	for i := range names {
		names[i] = fmt.Sprintf("n%02d", i)
	}
	reg := agent.NewRegistry()
	caches := make(map[string]*cache.Cache, cfg.Nodes+1)
	agents := make(map[string]*agent.Agent, cfg.Nodes+1)
	addNode := func(name string) error {
		c, err := cache.New(cacheBytes, cache.WithClock(clock))
		if err != nil {
			return fmt.Errorf("cache %s: %w", name, err)
		}
		ag, err := agent.New(name, c, faultnet.WrapTransport(netw, name, reg))
		if err != nil {
			return fmt.Errorf("agent %s: %w", name, err)
		}
		reg.Register(ag)
		caches[name] = c
		agents[name] = ag
		return nil
	}
	for _, name := range names {
		if err := addNode(name); err != nil {
			return nil, err
		}
	}

	// Populate through the client's placement ring so every key starts on
	// its consistent-hash owner; value sizes spread items across slab
	// classes. Each SetBytes ticks the clock once, so MRU timestamps are
	// unique and reproducible.
	ring, err := hashring.New(names)
	if err != nil {
		return nil, err
	}
	valueSizes := []int{16, 40, 120, 300, 700, 1500}
	for i := 0; i < cfg.Nodes*cfg.Items; i++ {
		key := fmt.Sprintf("k%05d", i)
		owner, err := ring.Get(key)
		if err != nil {
			return nil, err
		}
		val := makeValue(key, valueSizes[rng.Intn(len(valueSizes))])
		if err := caches[owner].SetBytes([]byte(key), val, uint32(i%7), time.Time{}); err != nil {
			return nil, fmt.Errorf("populate %s on %s: %w", key, owner, err)
		}
	}

	// Draw the action and the fault plan. Gold runs execute these exact
	// draws too — the rng stream must not depend on cfg.Faults.
	scaleOut := rng.Float64() < 0.4
	victim := names[rng.Intn(cfg.Nodes)]
	plan := faultnet.Rule{
		Drop:      0.05 + 0.08*rng.Float64(),
		DropReply: 0.05 + 0.10*rng.Float64(),
		Dup:       0.04 + 0.08*rng.Float64(),
		Delay:     0.15 * rng.Float64(),
		MaxDelay:  200 * time.Microsecond,
	}
	focus := rng.Intn(3)
	netw.SetDefault(plan)
	switch focus {
	case 0:
		// Hammer the data plane: lost import replies force full re-pushes.
		netw.SetOpRule(faultnet.OpImportData, faultnet.Rule{
			DropReply: 0.35, Dup: 0.15, Delay: 0.1, MaxDelay: 200 * time.Microsecond,
		})
	case 1:
		// Hammer FuseCache replies: retries must serve the memoized takes.
		netw.SetOpRule(faultnet.OpComputeTakes, faultnet.Rule{
			DropReply: 0.35, Delay: 0.1, MaxDelay: 200 * time.Microsecond,
		})
	}

	// Stage hot-key replication before the pre-snapshot: promoted keys
	// with live replica copies exercise the owned-filter (replica-held
	// items must never be double-shipped) and the state-only membership
	// flip while the action runs. Staging draws nothing from rng, so gold
	// and faulty runs stage identically.
	newName := fmt.Sprintf("n%02d", cfg.Nodes)
	hot, err := stageHotKeys(names, caches, agents, scaleOut, victim, newName, cfg.Nodes*cfg.Items)
	if err != nil {
		return nil, err
	}

	added := ""
	if scaleOut {
		added = newName
		if err := addNode(added); err != nil {
			return nil, err
		}
		hot.addNode(added, caches[added], agents[added])
	}

	// Snapshot the pre-state and compute the oracle expectation from it.
	// Valid because phases 1–2 move only metadata: the data every agent
	// consults during FuseCache is exactly this state. Snapshots see each
	// node through its owned-filter, exactly as its agent does — replica
	// copies are invisible to the migration and to the oracle alike.
	pre := snapshotAll(caches, hot)
	var senders, newMembers []string
	if scaleOut {
		senders, newMembers = names, append(slices.Clone(names), added)
	} else {
		senders = []string{victim}
		newMembers = slices.DeleteFunc(slices.Clone(names), func(n string) bool { return n == victim })
	}
	exp, err := expectMigration(pre, senders, newMembers)
	if err != nil {
		return nil, err
	}

	// The live stage interleaves deterministic client-style traffic with
	// the migration at the Master's phase hooks (see live.go).
	live := newLiveStage(caches, base)
	dir := faultnet.WrapDirectory(netw, "master", core.RegistryDirectory{Registry: reg})
	m, err := core.NewMaster(dir, names,
		core.WithClock(clock),
		core.WithWorkerLimit(1),
		core.WithRetry(taskgroup.Backoff{
			Attempts: 6, Delay: 200 * time.Microsecond, MaxDelay: time.Millisecond, Factor: 2,
		}),
		core.WithPhaseHook(live.hook),
	)
	if err != nil {
		return nil, err
	}
	// The settled table must reach the replicators: Subscribe delivers the
	// current one immediately (already seen, so ignored) and the settled
	// successor later. Sorted order keeps delivery deterministic.
	for _, name := range hot.nodeNames() {
		m.Subscribe(hot.reps[name])
	}
	// Ownership announcements gate stale imports on the agents and feed the
	// live stage's routing. Sorted order keeps delivery deterministic.
	agentNames := make([]string, 0, len(agents))
	for name := range agents {
		agentNames = append(agentNames, name)
	}
	sort.Strings(agentNames)
	for _, name := range agentNames {
		m.Subscribe(agents[name])
	}
	m.Subscribe(live)

	netw.SetEnabled(cfg.Faults)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var report *core.ScaleReport
	var runErr error
	if scaleOut {
		report, runErr = m.ScaleOut(ctx, []string{added})
	} else {
		report, runErr = m.ScaleInNodes(ctx, []string{victim})
	}
	netw.SetEnabled(false) // the audit below must not draw new decisions

	res := &Result{
		Seed:      cfg.Seed,
		Direction: "in",
		Completed: runErr == nil,
		EventLog:  netw.Fingerprint(),
		Injected:  netw.InjectedCount(),
	}
	if scaleOut {
		res.Direction = "out"
	}
	if runErr != nil {
		res.Err = runErr.Error()
	}
	if report != nil {
		res.Aborted = report.Aborted
		res.ItemsMigrated = report.ItemsMigrated
		res.Retries = report.Retries
	}

	res.HotStaged = hot.staged()
	res.LiveWrites = len(live.order)
	rc := &runCtx{
		direction: res.Direction,
		senders:   senders,
		initial:   names,
		caches:    caches,
		pre:       pre,
		exp:       exp,
		report:    report,
		master:    m,
		runErr:    runErr,
		hot:       hot,
		live:      live,
	}
	res.Violations = runChecks(rc)
	res.StateHash = stateHash(caches, m.Members())
	return res, nil
}

// makeValue builds a deterministic value of the given size tagged with its
// key, so a torn or cross-wired migration shows up as a digest mismatch.
func makeValue(key string, size int) []byte {
	v := make([]byte, size)
	seed := []byte(key)
	for i := range v {
		v[i] = seed[i%len(seed)] ^ byte(i)
	}
	return v
}
