// Package agent implements the ElMem Agent that runs beside every
// Memcached node (Section III-A). Agents do the node-local work of the
// three-phase migration (Section III-D):
//
//	phase 1 — a sending Agent hashes its keys against the new membership
//	and sends each target Agent, per slab class, the MRU timestamps of the
//	items it would receive;
//	phase 2 — each receiving Agent runs FuseCache per slab class over the
//	received lists plus its own, yielding per-sender take counts;
//	phase 3 — sending Agents stream the chosen KV pairs, and receivers
//	batch-import them at their MRU heads.
//
// Scale-out (Section III-D4) runs the same three phases from every
// existing node toward the newcomers; once the table settles, each
// surviving sender releases what it no longer owns. Agents also answer the
// Master's scoring queries (Section III-C). Peer communication
// goes through the Transport interface, implemented in-process (this
// package) and over TCP (package agentrpc).
//
// Every phase op, offer and import stream carries the round ID the Master
// draws for its scaling action, and agents tell actions apart by it alone:
// an agent keeps one round's offers, takes, picks and import streams; a
// newer round starts them afresh, the same round reuses them (so a retry
// finds what its first attempt left), and an older round is refused with
// ErrStaleRound. Nothing an aborted action left behind reaches the next,
// whichever Master process drives it.
package agent

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"sort"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"repro/internal/cache"
	"repro/internal/fusecache"
	"repro/internal/hashring"
	"repro/internal/taskgroup"
)

var (
	// ErrUnknownPeer is returned when the transport cannot resolve a node.
	ErrUnknownPeer = errors.New("agent: unknown peer")
	// ErrNoMetadata is returned by ComputeTakes when no offers arrived.
	ErrNoMetadata = errors.New("agent: no metadata offers received")
	// ErrNoPicks is returned by SendData when phase 1 has not picked in
	// the round, or Release has since ended it.
	ErrNoPicks = errors.New("agent: no phase-1 picks in this round")
	// ErrStaleRound, wrapped taskgroup.Permanent, refuses an op of a round
	// older than the agent's current one.
	ErrStaleRound = errors.New("agent: op of an older round")
)

// Peer is the receiving side of agent-to-agent communication. Both
// deliveries take the migration context: transports propagate its deadline
// and cancellation to the wire.
type Peer interface {
	// OfferMetadata delivers phase-1 metadata from a retiring/existing
	// node: per slab class, the MRU timestamps of the sender's items that
	// hash to this peer, hottest first. Phase 2 reads hotness only, so no
	// keys travel; the sender re-selects its items by count in phase 3.
	OfferMetadata(ctx context.Context, from string, round uint64, lists map[int]fusecache.List) error
	// OpenImport opens the phase-3 import stream of (sender, round), with
	// the plan's fingerprint as a safety check. Reopening it with the same
	// fingerprint resumes: the returned session's HighWater reports what
	// already landed. A different fingerprint resets the stream state.
	// window is the sender's max batches in flight (advisory).
	OpenImport(ctx context.Context, from string, round, fingerprint uint64, window int) (ImportSession, error)
}

// Transport resolves peers by node name.
type Transport interface {
	Peer(node string) (Peer, error)
}

// ScoreReport is a node's answer to the Master's scoring query: per
// populated slab class, the MRU timestamp of the median item and the slab's
// page weight w_b (Section III-C).
type ScoreReport struct {
	// Node names the reporting node.
	Node string `json:"node"`
	// Medians maps class ID → the median item's MRU timestamp (Unix nanos).
	Medians map[int]int64 `json:"medians"`
	// Weights maps class ID → w_b, the slab's share of assigned pages.
	Weights map[int]float64 `json:"weights"`
	// Items is the node's resident item count.
	Items int `json:"items"`
}

// Agent is the per-node ElMem agent.
type Agent struct {
	node        string
	cache       *cache.Cache
	transport   Transport
	batchSize   int
	batchBytes  int
	maxInflight int

	counters counters // cumulative data-plane counters (see stream.go)

	// ownedFilter, when set (func(string) bool), excludes keys this node
	// holds but does not own — hot-key replica copies — from every
	// migration selection, so a replicated item only ships from its home.
	ownedFilter atomic.Value

	// ownership is the latest ownership table announced by the master, nil
	// for standalone agents. Import paths consult it to drop stale stream
	// pairs aimed at a key this node has already handed over (or never
	// owned under the current table).
	ownership atomic.Pointer[hashring.Table]

	mu    sync.Mutex
	round roundState
}

// roundState is this node's part in the latest round it has seen.
type roundState struct {
	id uint64
	// offers is a receiver's phase-1 input: sender → class → MRU
	// timestamps, dropped once phase 2 computed takes.
	offers map[string]map[int]fusecache.List
	// takes is a receiver's phase-2 result, served again to a retry whose
	// first reply was lost: otherwise the retry would find no offers and
	// the Master would drop this target from phase 3 (chaos invariant 1).
	takes Takes
	// picks is a sender's phase-1 selection: target → class → picks,
	// hottest first. Phase 3 ships a prefix of it.
	picks map[string]map[int][]cache.Pick
	// imports is a receiver's phase-3 stream state per sender (stream.go).
	imports map[string]*importState
}

// enterLocked returns the state of round id, started afresh when id is
// newer than the current round; an older id is refused and changes
// nothing. Callers hold a.mu.
func (a *Agent) enterLocked(id uint64) (*roundState, error) {
	if id < a.round.id {
		return nil, taskgroup.Permanent(ErrStaleRound)
	}
	if id > a.round.id {
		a.round = roundState{id: id}
	}
	return &a.round, nil
}

// enter is enterLocked under a.mu, returning a copy of the state.
func (a *Agent) enter(id uint64) (roundState, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	r, err := a.enterLocked(id)
	if err != nil {
		return roundState{}, err
	}
	return *r, nil
}

// Option configures an Agent.
type Option interface {
	apply(*options)
}

type options struct {
	batchSize   int
	batchBytes  int
	maxInflight int
}

type batchSizeOption int

func (o batchSizeOption) apply(opts *options) { opts.batchSize = int(o) }

// WithTransferBatchSize bounds how many KV pairs one migration batch
// carries (default 2048). Smaller batches cap per-frame memory and give
// the paper's "regulated data movement over the network" a knob; larger
// batches reduce round trips.
func WithTransferBatchSize(n int) Option { return batchSizeOption(n) }

// DefaultTransferBatchSize is the default migration push granularity.
const DefaultTransferBatchSize = 2048

type batchBytesOption int

func (o batchBytesOption) apply(opts *options) { opts.batchBytes = int(o) }

// WithBatchBytes bounds the payload bytes (keys + values) of one
// migration batch (default 256 KiB; <= 0 disables the byte bound). With
// WithMaxInflight it fixes the sender's phase-3 memory ceiling at
// window × batch regardless of hot-set size.
func WithBatchBytes(n int) Option { return batchBytesOption(n) }

// DefaultBatchBytes is the default per-batch payload bound.
const DefaultBatchBytes = 256 << 10

type maxInflightOption int

func (o maxInflightOption) apply(opts *options) { opts.maxInflight = int(o) }

// WithMaxInflight sets the pipelining window W: how many unacknowledged
// batches a streaming push keeps in flight (default 8, minimum 1). Higher
// windows hide more network latency at the cost of more in-flight memory.
func WithMaxInflight(n int) Option { return maxInflightOption(n) }

// DefaultMaxInflight is the default pipelining window.
const DefaultMaxInflight = 8

// New creates an Agent for the given node name and cache.
func New(node string, c *cache.Cache, transport Transport, opts ...Option) (*Agent, error) {
	if node == "" {
		return nil, errors.New("agent: empty node name")
	}
	if c == nil {
		return nil, errors.New("agent: nil cache")
	}
	if transport == nil {
		return nil, errors.New("agent: nil transport")
	}
	o := options{
		batchSize:   DefaultTransferBatchSize,
		batchBytes:  DefaultBatchBytes,
		maxInflight: DefaultMaxInflight,
	}
	for _, opt := range opts {
		opt.apply(&o)
	}
	if o.batchSize < 1 {
		o.batchSize = DefaultTransferBatchSize
	}
	if o.maxInflight < 1 {
		o.maxInflight = 1
	}
	return &Agent{
		node:        node,
		cache:       c,
		transport:   transport,
		batchSize:   o.batchSize,
		batchBytes:  o.batchBytes,
		maxInflight: o.maxInflight,
	}, nil
}

// SetOwnedFilter installs (or, with nil behavior kept by passing a filter
// that always reports true, effectively clears) the ownership predicate
// applied to every migration selection. The phase-1 export hands f a view
// of key bytes in cache memory, valid only for the call: f tests the key
// and must not retain it.
func (a *Agent) SetOwnedFilter(f func(string) bool) {
	if f == nil {
		f = func(string) bool { return true }
	}
	a.ownedFilter.Store(f)
}

// owned reports whether key belongs to this node's migratable set.
func (a *Agent) owned(key string) bool {
	f, _ := a.ownedFilter.Load().(func(string) bool)
	return f == nil || f(key)
}

// ownedBytes is owned for key bytes in cache memory: the filter sees a
// string view of them rather than a per-item copy (see SetOwnedFilter).
func (a *Agent) ownedBytes(key []byte) bool {
	f, _ := a.ownedFilter.Load().(func(string) bool)
	return f == nil || f(unsafe.String(unsafe.SliceData(key), len(key)))
}

// Node returns the agent's node name.
func (a *Agent) Node() string { return a.node }

// Cache exposes the underlying store (tests and the node server use it).
func (a *Agent) Cache() *cache.Cache { return a.cache }

// ownedRoute files every live owned item in bucket 0: the RouteStamps
// route for this node's own migratable set.
func (a *Agent) ownedRoute(key []byte) int {
	if a.ownedBytes(key) {
		return 0
	}
	return -1
}

// Score answers the Master's III-C query. Each class median is taken over
// the owned items phase 1 would offer, so replica copies do not skew it.
// The context is accepted for interface symmetry; the in-process
// computation is not interruptible.
func (a *Agent) Score(_ context.Context) ScoreReport {
	report := ScoreReport{
		Node:    a.node,
		Medians: make(map[int]int64),
		Weights: a.cache.SlabPageWeights(),
		Items:   a.cache.Len(),
	}
	for _, classID := range a.cache.PopulatedClasses() {
		lists, err := a.cache.RouteStamps(classID, 1, a.ownedRoute)
		if err == nil && len(lists[0]) > 0 {
			report.Medians[classID] = lists[0][len(lists[0])/2]
		}
	}
	return report
}

// SendMetadata is phase 1, run on a sender: Pick, then push each target
// its offers. Cancelling ctx aborts between classes and between
// per-target pushes.
func (a *Agent) SendMetadata(ctx context.Context, round uint64, retained []string) error {
	offers, err := a.Pick(ctx, round, retained)
	if err != nil {
		return err
	}
	for i, target := range retained {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("send metadata: %w", err)
		}
		if len(offers[i]) == 0 {
			continue
		}
		peer, err := a.transport.Peer(target)
		if err != nil {
			return fmt.Errorf("send metadata to %s: %w", target, err)
		}
		if err := peer.OfferMetadata(ctx, a.node, round, offers[i]); err != nil {
			return fmt.Errorf("send metadata to %s: %w", target, err)
		}
	}
	return nil
}

// Pick is phase 1 without the push: one scan per class routes every owned
// item, by consistent hash over the new membership, to its target, and
// the agent keeps the picks per target and class — what SendData ships a
// prefix of — for the round. Items that stay with this node (a scale-out
// sender keeps most of its keys) are not picked. It returns, index-aligned
// with retained, each target's offers: per class, the picked stamps,
// hottest first. The Naive policy, which has no phase 2, calls it directly
// before SendData.
func (a *Agent) Pick(ctx context.Context, round uint64, retained []string) ([]map[int]fusecache.List, error) {
	if len(retained) == 0 {
		return nil, errors.New("agent: no retained nodes to send metadata to")
	}
	ring, err := hashring.New(retained)
	if err != nil {
		return nil, fmt.Errorf("send metadata: %w", err)
	}
	index := make(map[string]int, len(retained))
	for i, target := range retained {
		index[target] = i
	}
	route := func(key []byte, h uint64) int {
		if !a.ownedBytes(key) {
			return -1
		}
		owner, err := ring.GetHash(h)
		if err != nil || owner == a.node {
			return -1
		}
		return index[owner]
	}
	offers := make([]map[int]fusecache.List, len(retained))
	picks := make(map[string]map[int][]cache.Pick, len(retained))
	for _, classID := range a.cache.PopulatedClasses() {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("send metadata: %w", err)
		}
		lists, err := a.cache.RoutePicks(classID, len(retained), route)
		if err != nil {
			return nil, fmt.Errorf("send metadata class %d: %w", classID, err)
		}
		total := 0
		for _, l := range lists {
			total += len(l)
		}
		stamps := make(fusecache.List, 0, total)
		for i, l := range lists {
			if len(l) == 0 {
				continue
			}
			off := len(stamps)
			for _, p := range l {
				stamps = append(stamps, p.Stamp)
			}
			if offers[i] == nil {
				offers[i] = make(map[int]fusecache.List)
				picks[retained[i]] = make(map[int][]cache.Pick)
			}
			offers[i][classID] = stamps[off:len(stamps):len(stamps)]
			picks[retained[i]][classID] = l
		}
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	r, err := a.enterLocked(round)
	if err != nil {
		return nil, fmt.Errorf("send metadata: %w", err)
	}
	r.picks = picks
	return offers, nil
}

// OfferMetadata receives a phase-1 push (Peer implementation).
func (a *Agent) OfferMetadata(_ context.Context, from string, round uint64, lists map[int]fusecache.List) error {
	if from == "" {
		return errors.New("agent: metadata offer without sender")
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	r, err := a.enterLocked(round)
	if err != nil {
		return fmt.Errorf("metadata offer from %s: %w", from, err)
	}
	// Copy on write: ComputeTakes reads the offers outside a.mu.
	offers := make(map[string]map[int]fusecache.List, len(r.offers)+1)
	maps.Copy(offers, r.offers)
	offers[from] = lists
	r.offers = offers
	return nil
}

// Takes maps sender node → slab class → number of head items to migrate.
type Takes map[string]map[int]int

// ComputeTakes is phase 2, run on a receiver: for every slab class, run
// FuseCache across the round's offered metadata lists plus the local list,
// and return how many head items each sender should ship. The local list's
// take is implicit — local items are already resident. The round keeps the
// takes, not the offers, so a retry returns the same takes (callers must
// not modify them). With no offers in the round it returns ErrNoMetadata.
func (a *Agent) ComputeTakes(ctx context.Context, round uint64) (Takes, error) {
	r, err := a.enter(round)
	switch {
	case err != nil:
		return nil, fmt.Errorf("compute takes: %w", err)
	case r.takes != nil:
		return r.takes, nil
	case len(r.offers) == 0:
		return nil, ErrNoMetadata
	}

	// Stable sender order for determinism.
	senders := make([]string, 0, len(r.offers))
	for s := range r.offers {
		senders = append(senders, s)
	}
	sort.Strings(senders)

	// Union of classes appearing in any offer.
	classSet := make(map[int]struct{})
	for _, byClass := range r.offers {
		for classID := range byClass {
			classSet[classID] = struct{}{}
		}
	}

	// Sorted classes: deterministic work order and clean ctx abort points.
	classes := make([]int, 0, len(classSet))
	for classID := range classSet {
		classes = append(classes, classID)
	}
	sort.Ints(classes)

	out := make(Takes, len(senders))
	for _, s := range senders {
		out[s] = make(map[int]int)
	}
	for _, classID := range classes {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("compute takes: %w", err)
		}
		// Build the k lists: senders first, own list last (Section IV-A).
		lists := make([]fusecache.List, 0, len(senders)+1)
		for _, s := range senders {
			lists = append(lists, r.offers[s][classID])
		}
		own, err := a.cache.RouteStamps(classID, 1, a.ownedRoute)
		if err != nil {
			return nil, fmt.Errorf("compute takes class %d: %w", classID, err)
		}
		lists = append(lists, own[0])

		// n = the most items of this class the node can end up holding:
		// assigned-page capacity plus unassigned pages (at least the
		// current population, which by construction fits).
		n := a.cache.ClassAbsorbCapacity(classID)
		if n < len(own[0]) {
			n = len(own[0])
		}
		res, err := fusecache.TopN(lists, n)
		if err != nil {
			return nil, fmt.Errorf("compute takes class %d: %w", classID, err)
		}
		for i, s := range senders {
			if res.Take[i] > 0 {
				out[s][classID] = res.Take[i]
			}
		}
	}
	a.mu.Lock()
	if a.round.id == round { // no newer round began while computing
		a.round.takes, a.round.offers = out, nil
	}
	a.mu.Unlock()
	return out, nil
}

// SendData is phase 3, run on a sender: for the given target and its
// per-class take counts, ship the first takes[class] of the picks phase 1
// kept for the target (Pick), hottest first, streamed coldest-first in
// bounded, windowed batches (see stream.go). Nothing is walked or looked
// up by key again: a pick whose item left its chunk since phase 1 is
// skipped (cache.AppendPicks), and a target phase 1 picked nothing for
// gets nothing. Without picks of the round SendData fails with
// ErrNoPicks; it never selects by itself. Cancelling ctx aborts the
// stream; a retry is safe and cheap — the receiver's ack high-water mark
// lets it resume from the first unacknowledged batch, with fresher-copy
// idempotence in BatchImport as the safety net. The returned stats count
// every selected pick the push covered, whether shipped now, skipped on
// resume, or gone since phase 1.
func (a *Agent) SendData(ctx context.Context, round uint64, target string, takes map[int]int) (SendStats, error) {
	r, err := a.enter(round)
	if err == nil && r.picks == nil {
		err = ErrNoPicks
	}
	if err != nil {
		return SendStats{}, fmt.Errorf("send data to %s: %w", target, err)
	}
	byClass := r.picks[target]
	classes := make([]int, 0, len(takes))
	for classID := range takes {
		classes = append(classes, classID)
	}
	sort.Ints(classes)
	plan := make([][]cache.Pick, 0, len(classes))
	for _, classID := range classes {
		sel := byClass[classID]
		if n := min(max(takes[classID], 0), len(sel)); n > 0 {
			plan = append(plan, sel[:n])
		}
	}
	if len(plan) == 0 {
		return SendStats{}, nil
	}
	peer, err := a.transport.Peer(target)
	if err != nil {
		return SendStats{}, fmt.Errorf("send data to %s: %w", target, err)
	}
	start := time.Now()
	stats, err := a.pushPlan(ctx, peer, round, target, plan)
	stats.Duration = time.Since(start)
	a.recordSend(stats)
	if err != nil {
		return stats, fmt.Errorf("send data to %s: %w", target, err)
	}
	return stats, nil
}

// OwnershipChanged installs a newer ownership table
// (core.OwnershipListener). Stale announcements are dropped so listener
// delivery order cannot regress the import gate.
func (a *Agent) OwnershipChanged(t *hashring.Table) {
	if t == nil {
		return
	}
	for {
		cur := a.ownership.Load()
		if cur != nil && cur.Version() >= t.Version() {
			return
		}
		if a.ownership.CompareAndSwap(cur, t) {
			return
		}
	}
}

// acceptsImport reports whether this node may import key under the
// announced ownership table. Without a table (standalone agents, unit
// tests) everything is accepted.
func (a *Agent) acceptsImport(key string) bool {
	t := a.ownership.Load()
	return t == nil || t.AcceptsImport(a.node, key)
}

// filterStale splits stale pairs out of an import batch. The input slice
// is never mutated (the in-process transport shares it with the sender);
// when everything is acceptable — the common case — it is returned as-is.
func (a *Agent) filterStale(pairs []cache.KV) []cache.KV {
	stale := 0
	for _, kv := range pairs {
		if !a.acceptsImport(kv.Key) {
			stale++
		}
	}
	if stale == 0 {
		return pairs
	}
	kept := make([]cache.KV, 0, len(pairs)-stale)
	for _, kv := range pairs {
		if a.acceptsImport(kv.Key) {
			kept = append(kept, kv)
		}
	}
	a.counters.StaleDropped.Add(int64(stale))
	return kept
}

// Release drops the items this node holds but no longer owns under the
// settled membership members: every owned item whose ring owner is another
// node. Replica-held copies stay (they are outside the owned filter). The
// Master calls it only once the table has settled, so until then a failed
// action rolls back with every key still on its old owner. It also ends
// this node's part in the round, dropping the round's state. It returns
// how many items it dropped; a retry is safe.
func (a *Agent) Release(ctx context.Context, members []string) (int, error) {
	if err := ctx.Err(); err != nil {
		return 0, fmt.Errorf("release: %w", err)
	}
	ring, err := hashring.New(members)
	if err != nil {
		return 0, fmt.Errorf("release: %w", err)
	}
	a.mu.Lock()
	a.round = roundState{id: a.round.id}
	a.mu.Unlock()
	return a.cache.DropIf(func(key []byte) bool {
		if !a.ownedBytes(key) {
			return false
		}
		owner, err := ring.GetHash(hashring.KeyHashBytes(key))
		return err == nil && owner != a.node
	}), nil
}

// PendingOffers reports how many phase-1 offers the current round holds
// (tests).
func (a *Agent) PendingOffers() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.round.offers)
}

// Registry is the in-process Transport: a name → agent map. It is safe
// for concurrent use.
type Registry struct {
	mu     sync.RWMutex
	agents map[string]*Agent
}

// NewRegistry creates an empty in-process transport.
func NewRegistry() *Registry {
	return &Registry{agents: make(map[string]*Agent)}
}

// Register adds an agent under its node name.
func (r *Registry) Register(a *Agent) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.agents[a.Node()] = a
}

// Deregister removes a node.
func (r *Registry) Deregister(node string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.agents, node)
}

// Peer implements Transport.
func (r *Registry) Peer(node string) (Peer, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	a, ok := r.agents[node]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownPeer, node)
	}
	return a, nil
}

// Get returns a registered agent (for Master use in-process).
func (r *Registry) Get(node string) (*Agent, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	a, ok := r.agents[node]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownPeer, node)
	}
	return a, nil
}

// Nodes lists registered node names, sorted.
func (r *Registry) Nodes() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.agents))
	for n := range r.agents {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

var (
	_ Peer      = (*Agent)(nil)
	_ Transport = (*Registry)(nil)
)
