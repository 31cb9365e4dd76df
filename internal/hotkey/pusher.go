package hotkey

import (
	"fmt"
	"sync"
	"time"
)

// Op is the kind of a replica push.
type Op uint8

// The push kinds: store or refresh a replica copy, or drop it.
const (
	OpPut Op = iota + 1
	OpDel
)

// PushOp is one home→replica maintenance operation. Value, Flags and
// Expiry are only set for OpPut; Expiry's zero value means "never
// expires".
type PushOp struct {
	Op     Op
	Key    string
	Value  []byte
	Flags  uint32
	Expiry time.Time
}

// Pusher delivers push operations to a replica node. Implementations:
// LocalPusher (in-process, used by tests and the chaos harness) and
// NetPusher (the hkput/hkdel wire commands).
type Pusher interface {
	Push(node string, op PushOp) error
}

// LocalStore is the cache surface LocalPusher applies pushes through;
// *cache.Cache satisfies it.
type LocalStore interface {
	SetBytes(key, value []byte, flags uint32, expiresAt time.Time) error
	Delete(key string) error
}

// LocalNode is one LocalPusher target: the node's store and (optionally)
// its replicator, which tracks the replica-held marks.
type LocalNode struct {
	Store LocalStore
	Rep   *Replicator
}

// LocalPusher applies push operations synchronously to in-process caches.
// It gives the chaos harness a deterministic replica data plane: pushes
// land (and tick the logical clock) in call order, with no sockets or
// goroutines involved.
type LocalPusher struct {
	mu    sync.RWMutex
	nodes map[string]LocalNode
}

// NewLocalPusher creates an empty in-process pusher.
func NewLocalPusher() *LocalPusher {
	return &LocalPusher{nodes: make(map[string]LocalNode)}
}

// Register adds (or replaces) a target node.
func (p *LocalPusher) Register(name string, node LocalNode) {
	p.mu.Lock()
	p.nodes[name] = node
	p.mu.Unlock()
}

// Push implements Pusher with the same semantics as the wire commands:
// a put stores the copy and marks it replica-held, a delete drops the copy
// only while it is still marked.
func (p *LocalPusher) Push(node string, op PushOp) error {
	p.mu.RLock()
	n, ok := p.nodes[node]
	p.mu.RUnlock()
	if !ok {
		return fmt.Errorf("hotkey: unknown push target %q", node)
	}
	switch op.Op {
	case OpPut:
		if err := n.Store.SetBytes([]byte(op.Key), op.Value, op.Flags, op.Expiry); err != nil {
			return err
		}
		if n.Rep != nil {
			n.Rep.MarkReplica([]byte(op.Key))
		}
		return nil
	case OpDel:
		if n.Rep == nil || n.Rep.DropReplica([]byte(op.Key)) {
			_ = n.Store.Delete(op.Key)
		}
		return nil
	default:
		return fmt.Errorf("hotkey: unknown push op %d", op.Op)
	}
}
