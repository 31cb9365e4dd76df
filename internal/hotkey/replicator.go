package hotkey

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/hashring"
)

// Store is the local-value surface the replicator reads promoted values
// through; *cache.Cache satisfies it via PeekFull.
type Store interface {
	PeekFull(key string) (value []byte, flags uint32, expiresAt time.Time, ok bool)
}

// Config parameterizes a Replicator. The zero value is usable: every field
// falls back to the default noted on it.
type Config struct {
	// Capacity is the sketch size — how many candidate keys are monitored
	// (default 128).
	Capacity int
	// SampleRate samples one in SampleRate hot-path operations into the
	// sketch, rounded up to a power of two (default 32; 1 records all).
	// Detection needs relative frequencies, not absolute counts, and under
	// the Zipf-extreme skew that motivates promotion the hot keys dominate
	// any uniform sample — so the rate trades only detection latency, not
	// accuracy, against hot-path cost.
	SampleRate int
	// TopK bounds how many keys this node keeps promoted (default 16).
	TopK int
	// ShareThreshold promotes a key once its estimated share of sampled
	// operations reaches it (default 0.05), and demotes after the share
	// stays below ShareThreshold/2 for CooldownTicks ticks.
	ShareThreshold float64
	// Replicas is the serving-set size R including the home node
	// (default 2, i.e. one replica). Values < 2 disable promotion.
	Replicas int
	// MinSamples gates evaluation: a tick with fewer sampled operations in
	// the window promotes nothing (default 64).
	MinSamples uint64
	// CooldownTicks is how many consecutive cold ticks demote a promoted
	// key (default 3).
	CooldownTicks int
	// TickInterval, when positive, runs Tick on a background ticker
	// between Start and Stop. Zero leaves ticking to the caller
	// (deterministic tests and benchmarks drive Tick directly).
	TickInterval time.Duration
}

func (c Config) withDefaults() Config {
	if c.Capacity <= 0 {
		c.Capacity = 128
	}
	if c.SampleRate <= 0 {
		c.SampleRate = 32
	}
	if c.TopK <= 0 {
		c.TopK = 16
	}
	if c.ShareThreshold <= 0 {
		c.ShareThreshold = 0.05
	}
	if c.Replicas == 0 {
		c.Replicas = 2
	}
	if c.MinSamples == 0 {
		c.MinSamples = 64
	}
	if c.CooldownTicks <= 0 {
		c.CooldownTicks = 3
	}
	return c
}

// TableEntry is one row of the versioned hot-key table: a promoted key and
// its serving set, home node first.
type TableEntry struct {
	Key   string
	Nodes []string
}

// CountersSnapshot is a point-in-time view of the replicator's counters,
// published as the elmem_hotkey expvar and printed in `stats`.
type CountersSnapshot struct {
	Promotions    int64  `json:"promotions"`
	Demotions     int64  `json:"demotions"`
	FlipDrops     int64  `json:"flipDrops"`
	ReplicaPushes int64  `json:"replicaPushes"`
	PushErrors    int64  `json:"pushErrors"`
	ReplicaReads  int64  `json:"replicaReads"`
	Promoted      int    `json:"promoted"`
	ReplicaHeld   int    `json:"replicaHeld"`
	TableVersion  uint64 `json:"tableVersion"`
}

// promoEntry is one promoted key's state.
type promoEntry struct {
	replicas []string // serving replicas, home excluded
	cold     int      // consecutive ticks below the demotion threshold
	dirty    bool     // replica set changed; re-push value on next Tick
}

// Replicator owns one node's hot-key state: the detector, the set of keys
// this node has promoted (it is their home), and the set of replica copies
// it holds for other homes. Writes to a promoted key fan out to its
// replicas through the Pusher; a settled ownership table adjusts state only
// and defers re-pushes to the next Tick, so a membership change in the
// middle of a migration never moves data by itself.
type Replicator struct {
	cfg    Config
	node   string
	store  Store
	pusher Pusher
	det    *Detector

	// Hot-path gates: loads that keep the per-request cost near zero when
	// nothing is promoted or held.
	promotedCount atomic.Int64
	replicaCount  atomic.Int64

	version atomic.Uint64

	promotions atomic.Int64
	demotions  atomic.Int64
	flipDrops  atomic.Int64
	pushes     atomic.Int64
	pushErrs   atomic.Int64
	repReads   atomic.Int64

	mu           sync.RWMutex
	tableVersion uint64 // version of the last settled table acted on
	members      []string
	ring         *hashring.Ring
	promoted     map[string]*promoEntry
	replicaHeld  map[string]struct{}

	tickStop chan struct{}
	tickWG   sync.WaitGroup
}

// New creates a Replicator for the named node. store may be nil only if
// promotion is never triggered (detection-only use).
func New(node string, store Store, pusher Pusher, cfg Config) *Replicator {
	cfg = cfg.withDefaults()
	return &Replicator{
		cfg:         cfg,
		node:        node,
		store:       store,
		pusher:      pusher,
		det:         NewDetector(cfg.Capacity, cfg.SampleRate),
		promoted:    make(map[string]*promoEntry),
		replicaHeld: make(map[string]struct{}),
	}
}

// Node returns the owning node's name.
func (r *Replicator) Node() string { return r.node }

// SampleMask exposes the detector's sampling mask so the server can gate
// observations with a per-connection counter (a plain increment) instead
// of a shared atomic: observe when counter&SampleMask() == 0.
func (r *Replicator) SampleMask() uint64 { return r.det.Mask() }

// ObserveGet records one read that already passed the caller's sampling
// gate, counting it as a replica read when the key is held for another
// home (so the replica-read counter is a sampled estimate, like the
// sketch itself).
func (r *Replicator) ObserveGet(key []byte) {
	r.det.RecordSampled(key)
	if r.replicaCount.Load() == 0 {
		return
	}
	r.mu.RLock()
	_, held := r.replicaHeld[string(key)] // no alloc: map index conversion
	r.mu.RUnlock()
	if held {
		r.repReads.Add(1)
	}
}

// ObserveWrite records one write that already passed the caller's
// sampling gate.
func (r *Replicator) ObserveWrite(key []byte) {
	r.det.RecordSampled(key)
}

// AfterWrite brings the key's replicas to the home's state after a client
// write, whatever its outcome: an OpPut of the current value, flags and
// expiry, or an OpDel when the home holds nothing, since a write that
// failed may have dropped the home's copy. It is a no-op (one atomic load)
// unless this node has promoted keys.
func (r *Replicator) AfterWrite(key []byte) {
	reps := r.replicasOf(key)
	if reps == nil {
		return
	}
	r.syncReplicas(string(key), reps, true)
}

// replicasOf returns a copy of the replica set when key is promoted here,
// nil otherwise.
func (r *Replicator) replicasOf(key []byte) []string {
	if r.promotedCount.Load() == 0 {
		return nil
	}
	r.mu.RLock()
	e, ok := r.promoted[string(key)] // no alloc: map index conversion
	var reps []string
	if ok {
		reps = append([]string(nil), e.replicas...)
	}
	r.mu.RUnlock()
	return reps
}

// MarkReplica records that this node holds a replica copy of key pushed by
// its home. Keys this node owns under the current ring are never marked.
func (r *Replicator) MarkReplica(key []byte) {
	k := string(key)
	r.mu.Lock()
	if r.ring != nil {
		if owner, err := r.ring.Get(k); err == nil && owner == r.node {
			r.mu.Unlock()
			return
		}
	}
	if _, ok := r.replicaHeld[k]; !ok {
		r.replicaHeld[k] = struct{}{}
		r.replicaCount.Store(int64(len(r.replicaHeld)))
	}
	r.mu.Unlock()
}

// DropReplica unmarks a replica copy, reporting whether it was held. The
// server deletes the underlying item only on true, so a stale hkdel from a
// previous home cannot destroy a copy this node now owns.
func (r *Replicator) DropReplica(key []byte) bool {
	r.mu.Lock()
	_, held := r.replicaHeld[string(key)]
	if held {
		delete(r.replicaHeld, string(key))
		r.replicaCount.Store(int64(len(r.replicaHeld)))
	}
	r.mu.Unlock()
	return held
}

// IsOwned reports whether key counts as owned by this node for migration
// purposes: everything except replica-held copies. Agents install it as
// their owned-filter so replicated items are never double-shipped.
func (r *Replicator) IsOwned(key string) bool {
	if r.replicaCount.Load() == 0 {
		return true
	}
	r.mu.RLock()
	_, held := r.replicaHeld[key]
	r.mu.RUnlock()
	return !held
}

// OwnershipChanged implements core.OwnershipListener. Only a settled table
// newer than the last one seen acts; an in-flight or stale one changes
// nothing. Acting adjusts state only — promotions whose home moved away
// are dropped, surviving replica sets are recomputed and marked dirty for
// the next Tick to re-push, and replica-held keys that now hash here
// become owned. No value moves when the table settles, so settling
// composes with a concurrent migration's data plane.
func (r *Replicator) OwnershipChanged(t *hashring.Table) {
	if t == nil || !t.Settled() {
		return
	}
	members := t.Members()
	ring, err := hashring.New(members)
	if err != nil {
		return
	}
	changed := false
	r.mu.Lock()
	if t.Version() <= r.tableVersion {
		r.mu.Unlock()
		return
	}
	r.tableVersion = t.Version()
	r.members = members
	r.ring = ring
	for key, e := range r.promoted {
		owner, err := ring.Get(key)
		if err != nil || owner != r.node {
			delete(r.promoted, key)
			r.flipDrops.Add(1)
			changed = true
			continue
		}
		reps := r.replicaSetLocked(key)
		if !equalStrings(reps, e.replicas) {
			e.replicas = reps
			e.dirty = true
			changed = true
		}
	}
	for key := range r.replicaHeld {
		if owner, err := ring.Get(key); err == nil && owner == r.node {
			delete(r.replicaHeld, key)
			changed = true
		}
	}
	r.promotedCount.Store(int64(len(r.promoted)))
	r.replicaCount.Store(int64(len(r.replicaHeld)))
	r.mu.Unlock()
	if changed {
		r.version.Add(1)
	}
}

// replicaSetLocked computes the serving replicas for key: the next R-1
// distinct ring successors after the home node. Caller holds r.mu.
func (r *Replicator) replicaSetLocked(key string) []string {
	if r.ring == nil || r.cfg.Replicas < 2 {
		return nil
	}
	nodes, err := r.ring.GetN(key, r.cfg.Replicas)
	if err != nil {
		return nil
	}
	reps := make([]string, 0, len(nodes))
	for _, n := range nodes {
		if n != r.node {
			reps = append(reps, n)
		}
	}
	return reps
}

// Promote force-promotes key (admin and harness hook): the key must hash
// to this node and a non-empty replica set must exist. The current value,
// if resident, is pushed to every replica synchronously.
func (r *Replicator) Promote(key string) error {
	r.mu.Lock()
	if r.ring == nil {
		r.mu.Unlock()
		return errors.New("hotkey: no membership")
	}
	owner, err := r.ring.Get(key)
	if err != nil || owner != r.node {
		r.mu.Unlock()
		return fmt.Errorf("hotkey: %q is homed on %q, not %q", key, owner, r.node)
	}
	if _, ok := r.promoted[key]; ok {
		r.mu.Unlock()
		return nil
	}
	reps := r.replicaSetLocked(key)
	if len(reps) == 0 {
		r.mu.Unlock()
		return errors.New("hotkey: no replicas available")
	}
	r.promoted[key] = &promoEntry{replicas: reps}
	r.promotedCount.Store(int64(len(r.promoted)))
	r.mu.Unlock()
	r.promotions.Add(1)
	r.version.Add(1)
	r.syncReplicas(key, reps, false)
	return nil
}

// Tick runs one promotion/demotion evaluation over the decayed sketch
// window: keys whose sampled share crosses the threshold (and that this
// node homes) are promoted up to TopK, promoted keys cold for
// CooldownTicks are demoted with a delete fan-out, and dirty replica sets
// left by a settled ownership table are re-pushed. Deterministic given the
// operation history: all push orders are key-sorted.
func (r *Replicator) Tick() {
	top, total := r.det.Top(r.cfg.Capacity)
	defer r.det.Decay()

	type demotion struct {
		key      string
		replicas []string
	}
	var demote []demotion
	var resync []string

	r.mu.Lock()
	if r.ring == nil || len(r.members) < 2 {
		r.mu.Unlock()
		return
	}
	hot := make(map[string]bool)
	if total >= r.cfg.MinSamples {
		for _, kc := range top {
			share := float64(kc.Count) / float64(total)
			if share < r.cfg.ShareThreshold/2 {
				break // sorted descending: nothing hotter follows
			}
			if owner, err := r.ring.Get(kc.Key); err != nil || owner != r.node {
				continue // not ours to promote
			}
			if _, held := r.replicaHeld[kc.Key]; held {
				continue // we serve this one for another home
			}
			if e, ok := r.promoted[kc.Key]; ok {
				// Hysteresis: anything above half the threshold keeps an
				// existing promotion warm.
				e.cold = 0
				hot[kc.Key] = true
				continue
			}
			if share < r.cfg.ShareThreshold || len(r.promoted) >= r.cfg.TopK {
				continue
			}
			reps := r.replicaSetLocked(kc.Key)
			if len(reps) == 0 {
				continue
			}
			r.promoted[kc.Key] = &promoEntry{replicas: reps, dirty: true}
			r.promotions.Add(1)
			hot[kc.Key] = true
		}
	}
	for key, e := range r.promoted {
		if hot[key] {
			continue
		}
		e.cold++
		if e.cold >= r.cfg.CooldownTicks {
			demote = append(demote, demotion{key: key, replicas: e.replicas})
			delete(r.promoted, key)
			r.demotions.Add(1)
		}
	}
	for key, e := range r.promoted {
		if e.dirty {
			resync = append(resync, key)
			e.dirty = false
		}
	}
	r.promotedCount.Store(int64(len(r.promoted)))
	r.mu.Unlock()

	sort.Strings(resync)
	sort.Slice(demote, func(i, j int) bool { return demote[i].key < demote[j].key })
	if len(resync)+len(demote) > 0 {
		r.version.Add(1)
	}
	for _, key := range resync {
		r.syncReplicas(key, r.replicasOf([]byte(key)), false)
	}
	for _, d := range demote {
		r.pushAll(d.replicas, PushOp{Op: OpDel, Key: d.key})
	}
}

// syncReplicas pushes the current home value of key to every replica.
// When the home holds none it pushes an OpDel if drop is set, and nothing
// otherwise: a promotion of a key not resident yet waits for its first
// write.
func (r *Replicator) syncReplicas(key string, replicas []string, drop bool) {
	if r.store == nil || len(replicas) == 0 {
		return
	}
	value, flags, expiry, ok := r.store.PeekFull(key)
	if !ok {
		if drop {
			r.pushAll(replicas, PushOp{Op: OpDel, Key: key})
		}
		return
	}
	r.pushAll(replicas, PushOp{Op: OpPut, Key: key, Value: value, Flags: flags, Expiry: expiry})
}

// pushAll delivers op to every replica, counting pushes and errors. Push
// failures are deliberately non-fatal: a missed replica copy degrades to a
// replica read miss, which clients resolve against the home node.
func (r *Replicator) pushAll(replicas []string, op PushOp) {
	if r.pusher == nil {
		return
	}
	for _, node := range replicas {
		if err := r.pusher.Push(node, op); err != nil {
			r.pushErrs.Add(1)
			continue
		}
		r.pushes.Add(1)
	}
}

// Table snapshots the versioned hot-key table: every promoted key with its
// serving set, home first, sorted by key.
func (r *Replicator) Table() (uint64, []TableEntry) {
	r.mu.RLock()
	entries := make([]TableEntry, 0, len(r.promoted))
	for key, e := range r.promoted {
		nodes := make([]string, 0, len(e.replicas)+1)
		nodes = append(nodes, r.node)
		nodes = append(nodes, e.replicas...)
		entries = append(entries, TableEntry{Key: key, Nodes: nodes})
	}
	r.mu.RUnlock()
	sort.Slice(entries, func(i, j int) bool { return entries[i].Key < entries[j].Key })
	return r.version.Load(), entries
}

// Promoted lists this node's promoted keys, sorted.
func (r *Replicator) Promoted() []string {
	r.mu.RLock()
	out := make([]string, 0, len(r.promoted))
	for key := range r.promoted {
		out = append(out, key)
	}
	r.mu.RUnlock()
	sort.Strings(out)
	return out
}

// Snapshot returns the current counter values.
func (r *Replicator) Snapshot() CountersSnapshot {
	r.mu.RLock()
	promoted := len(r.promoted)
	held := len(r.replicaHeld)
	r.mu.RUnlock()
	return CountersSnapshot{
		Promotions:    r.promotions.Load(),
		Demotions:     r.demotions.Load(),
		FlipDrops:     r.flipDrops.Load(),
		ReplicaPushes: r.pushes.Load(),
		PushErrors:    r.pushErrs.Load(),
		ReplicaReads:  r.repReads.Load(),
		Promoted:      promoted,
		ReplicaHeld:   held,
		TableVersion:  r.version.Load(),
	}
}

// Start launches the background ticker when Config.TickInterval is
// positive; otherwise it is a no-op. Stop joins it.
func (r *Replicator) Start() {
	if r.cfg.TickInterval <= 0 || r.tickStop != nil {
		return
	}
	r.tickStop = make(chan struct{})
	r.tickWG.Add(1)
	go func() {
		defer r.tickWG.Done()
		t := time.NewTicker(r.cfg.TickInterval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				r.Tick()
			case <-r.tickStop:
				return
			}
		}
	}()
}

// Stop halts the background ticker started by Start.
func (r *Replicator) Stop() {
	if r.tickStop == nil {
		return
	}
	close(r.tickStop)
	r.tickWG.Wait()
	r.tickStop = nil
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
