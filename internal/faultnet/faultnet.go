// Package faultnet is a deterministic fault-injection layer for ElMem's
// two network planes: the agentrpc control plane (Master → Agent commands,
// Agent → Agent metadata/data pushes) and the memcached data path.
//
// Every injected fault is a pure function of (seed, from, to, op, seq):
// the nth operation on a directed link always receives the same decision
// for a given seed, regardless of wall-clock timing or goroutine
// scheduling. A failing chaos run therefore minimizes to one logged seed —
// re-running that seed reproduces the identical fault schedule, which is
// the property the invariant harness (internal/cluster/invariants) builds
// its determinism check on.
//
// Two injection layers share one schedule:
//
//   - RPC layer (wrap.go): wrappers for agent.Transport/agent.Peer and
//     core.Directory/core.MasterAgent intercept whole operations — drop
//     (fail before delivery), reply-loss (deliver, then report failure,
//     which makes the caller's retry replay the RPC — the duplication
//     mechanism real lossy networks produce), duplicate (deliver twice),
//     delay, and one-way partitions.
//   - byte layer (conn.go): a TCP proxy applies connection resets, partial writes, per-chunk delays, reply
//     swallowing, and slow-node throttling to real wire traffic — the
//     memcached data path and the agentrpc frames.
package faultnet

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"
)

// ErrInjected marks every failure this package fabricates. It is never
// wrapped in taskgroup.Permanent, so the control plane's retry machinery
// treats injected faults as transient transport failures — exactly how a
// real drop or reset presents.
var ErrInjected = errors.New("faultnet: injected fault")

// Action is the decision taken for one operation on a link.
type Action uint8

// The fault actions.
const (
	// ActPass delivers the operation untouched.
	ActPass Action = iota
	// ActDelay delivers after a deterministic delay.
	ActDelay
	// ActDrop fails the operation before it executes (lost request).
	ActDrop
	// ActDropReply executes the operation, then reports failure (lost
	// reply). The caller cannot distinguish this from ActDrop, so a retry
	// replays an already-applied operation — the idempotence probe.
	ActDropReply
	// ActDup delivers the operation twice back to back (replayed frame).
	ActDup
	// ActPartition fails the operation because the directed link is cut.
	ActPartition
	// ActReset closes the connection mid-exchange (byte layer).
	ActReset
	// ActPartialWrite forwards a prefix of the bytes, then resets (byte
	// layer).
	ActPartialWrite
)

// String names the action for event logs.
func (a Action) String() string {
	switch a {
	case ActPass:
		return "pass"
	case ActDelay:
		return "delay"
	case ActDrop:
		return "drop"
	case ActDropReply:
		return "drop_reply"
	case ActDup:
		return "dup"
	case ActPartition:
		return "partition"
	case ActReset:
		return "reset"
	case ActPartialWrite:
		return "partial_write"
	default:
		return fmt.Sprintf("action(%d)", uint8(a))
	}
}

// Rule is the fault mix for a link (directed node pair), an op, or the
// whole network. Probabilities are independent and checked in a fixed
// order (Partition, Drop, DropReply, Dup, Delay); the zero Rule injects
// nothing.
type Rule struct {
	// Drop is the probability of failing an operation before delivery.
	Drop float64
	// DropReply is the probability of delivering and then failing.
	DropReply float64
	// Dup is the probability of delivering twice.
	Dup float64
	// Delay is the probability of delaying delivery; MaxDelay bounds the
	// deterministic delay drawn for it (default 2ms when Delay > 0).
	Delay    float64
	MaxDelay time.Duration
	// Reset and PartialWrite are byte-layer probabilities, applied per
	// chunk a Proxy forwards.
	Reset        float64
	PartialWrite float64
	// ThrottleBPS, when positive, paces byte-layer writes to roughly this
	// many bytes per second (the slow-node fault).
	ThrottleBPS int
	// Partition, when true, cuts the directed link entirely.
	Partition bool
}

// IsZero reports whether the rule injects nothing.
func (r Rule) IsZero() bool {
	return r == Rule{}
}

// defaultMaxDelay bounds injected delays when a rule enables Delay but
// leaves MaxDelay unset.
const defaultMaxDelay = 2 * time.Millisecond

// Event records one decision. From/To/Op/Seq identify the operation
// deterministically; Action/Delay are the schedule's verdict for it.
type Event struct {
	// From and To name the directed link.
	From, To string
	// Op names the operation (an RPC op like "import_data", or a byte-layer
	// op like "write" / "fwd" / "rsp").
	Op string
	// Seq is the zero-based index of this operation on (From, To, Op).
	Seq uint64
	// Action is the injected decision.
	Action Action
	// Delay is the injected latency (ActDelay only).
	Delay time.Duration
}

// String renders one canonical log line.
func (e Event) String() string {
	if e.Action == ActDelay {
		return fmt.Sprintf("%s->%s %s#%d %s %s", e.From, e.To, e.Op, e.Seq, e.Action, e.Delay)
	}
	return fmt.Sprintf("%s->%s %s#%d %s", e.From, e.To, e.Op, e.Seq, e.Action)
}

// link is a directed node pair.
type link struct{ from, to string }

// linkOp keys the per-operation sequence counters.
type linkOp struct {
	link
	op string
}

// Network is one deterministic fault schedule. It is safe for concurrent
// use; decisions on distinct links are independent, so concurrent phases
// still draw per-link-deterministic schedules.
type Network struct {
	seed int64

	mu       sync.Mutex
	def      Rule
	links    map[link]Rule
	ops      map[string]Rule
	seqs     map[linkOp]uint64
	events   []Event
	disabled bool
}

// New creates a schedule for the seed with no rules installed.
func New(seed int64) *Network {
	return &Network{
		seed:  seed,
		links: make(map[link]Rule),
		ops:   make(map[string]Rule),
		seqs:  make(map[linkOp]uint64),
	}
}

// Seed returns the schedule's seed.
func (n *Network) Seed() int64 { return n.seed }

// SetDefault installs the fallback rule for links without a specific one.
func (n *Network) SetDefault(r Rule) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.def = r
}

// SetLinkRule installs the rule for the directed link from→to.
func (n *Network) SetLinkRule(from, to string, r Rule) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.links[link{from, to}] = r
}

// SetOpRule installs a rule for one operation regardless of link — the
// per-phase knob: agentrpc op names ("send_metadata", "compute_takes",
// "send_data", "offer_metadata", "import_data", "release", "score")
// map one-to-one onto the migration phases.
func (n *Network) SetOpRule(op string, r Rule) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.ops[op] = r
}

// Partition cuts the directed link from→to (one-way partition: the
// reverse direction keeps working unless cut separately).
func (n *Network) Partition(from, to string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	r := n.links[link{from, to}]
	r.Partition = true
	n.links[link{from, to}] = r
}

// Heal restores the directed link.
func (n *Network) Heal(from, to string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	r := n.links[link{from, to}]
	r.Partition = false
	n.links[link{from, to}] = r
}

// SetEnabled turns injection on or off without discarding rules or
// sequence counters. Harnesses disable the network while populating the
// cluster and enable it for the scaling action under test.
func (n *Network) SetEnabled(enabled bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.disabled = !enabled
}

// ruleFor resolves the active rule: link > op > default.
func (n *Network) ruleFor(l link, op string) Rule {
	if r, ok := n.links[l]; ok {
		return r
	}
	if r, ok := n.ops[op]; ok {
		return r
	}
	return n.def
}

// Decision is one resolved verdict plus the byte-layer extras.
type Decision struct {
	Action Action
	// Delay is the injected latency for ActDelay.
	Delay time.Duration
	// ThrottleBPS carries the link's pacing for byte-layer writers.
	ThrottleBPS int
}

// Decide draws the deterministic decision for the next operation on
// (from, to, op) and records it in the event log. byteLayer selects the
// byte-level fault set (Reset/PartialWrite) instead of the RPC one
// (Drop/DropReply/Dup).
func (n *Network) Decide(from, to, op string, byteLayer bool) Decision {
	n.mu.Lock()
	defer n.mu.Unlock()
	k := linkOp{link{from, to}, op}
	seq := n.seqs[k]
	n.seqs[k]++
	if n.disabled {
		return Decision{Action: ActPass}
	}
	r := n.ruleFor(k.link, op)
	d := n.verdict(r, k, seq, byteLayer)
	n.events = append(n.events, Event{
		From: from, To: to, Op: op, Seq: seq,
		Action: d.Action, Delay: d.Delay,
	})
	return d
}

// verdict maps (rule, link, op, seq) onto an action. Each fault type
// draws an independent deterministic uniform so probabilities do not
// correlate.
func (n *Network) verdict(r Rule, k linkOp, seq uint64, byteLayer bool) Decision {
	d := Decision{Action: ActPass, ThrottleBPS: r.ThrottleBPS}
	if r.IsZero() {
		return d
	}
	if r.Partition {
		d.Action = ActPartition
		return d
	}
	h := n.opHash(k, seq)
	if byteLayer {
		switch {
		case u01(mix(h, 1)) < r.Reset:
			d.Action = ActReset
		case u01(mix(h, 2)) < r.PartialWrite:
			d.Action = ActPartialWrite
		case u01(mix(h, 3)) < r.Drop:
			d.Action = ActDrop
		case u01(mix(h, 4)) < r.Delay:
			d.Action = ActDelay
			d.Delay = drawDelay(mix(h, 5), r)
		}
		return d
	}
	switch {
	case u01(mix(h, 1)) < r.Drop:
		d.Action = ActDrop
	case u01(mix(h, 2)) < r.DropReply:
		d.Action = ActDropReply
	case u01(mix(h, 3)) < r.Dup:
		d.Action = ActDup
	case u01(mix(h, 4)) < r.Delay:
		d.Action = ActDelay
		d.Delay = drawDelay(mix(h, 5), r)
	}
	return d
}

// drawDelay maps a hash onto (0, MaxDelay].
func drawDelay(h uint64, r Rule) time.Duration {
	max := r.MaxDelay
	if max <= 0 {
		max = defaultMaxDelay
	}
	return time.Duration(u01(h)*float64(max)) + time.Microsecond
}

// opHash keys the decision stream: a stable hash of seed, link, op, seq.
func (n *Network) opHash(k linkOp, seq uint64) uint64 {
	h := uint64(fnvOffset)
	h = fnvMixUint(h, uint64(n.seed))
	h = fnvMixString(h, k.from)
	h = fnvMixString(h, k.to)
	h = fnvMixString(h, k.op)
	h = fnvMixUint(h, seq)
	return mix(h, 0)
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func fnvMixString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	h ^= 0xff // field separator
	h *= fnvPrime
	return h
}

func fnvMixUint(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnvPrime
		v >>= 8
	}
	return h
}

// mix is a splitmix64 finalizer round over h xor a stream tag, giving
// independent uniform draws from one op hash.
func mix(h, tag uint64) uint64 {
	z := h ^ (tag+1)*0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// u01 maps a hash onto [0, 1).
func u01(h uint64) float64 {
	return float64(h>>11) / (1 << 53)
}

// Events returns a copy of the event log in decision order.
func (n *Network) Events() []Event {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]Event, len(n.events))
	copy(out, n.events)
	return out
}

// InjectedCount reports how many recorded decisions were not ActPass.
func (n *Network) InjectedCount() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	c := 0
	for _, e := range n.events {
		if e.Action != ActPass {
			c++
		}
	}
	return c
}

// Fingerprint renders the event log canonically — sorted by (from, to,
// op, seq) so concurrent schedules compare equal when their per-link
// decision streams match. Two runs of the same seed over the same call
// pattern must produce identical fingerprints; the chaos sweep asserts
// exactly that.
func (n *Network) Fingerprint() string {
	events := n.Events()
	sort.Slice(events, func(i, j int) bool {
		a, b := events[i], events[j]
		if a.From != b.From {
			return a.From < b.From
		}
		if a.To != b.To {
			return a.To < b.To
		}
		if a.Op != b.Op {
			return a.Op < b.Op
		}
		return a.Seq < b.Seq
	})
	out := make([]byte, 0, len(events)*32)
	for _, e := range events {
		out = append(out, e.String()...)
		out = append(out, '\n')
	}
	return string(out)
}
