package hotkey

import (
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/memproto"
)

// NetPusher delivers push operations over the memcached wire protocol
// (hkput/hkdel) to replica nodes, which in the cluster are
// addressed by their listen address. It keeps one lazily-dialed connection
// per target and drops it on any error, redialing on the next push.
type NetPusher struct {
	dialTimeout time.Duration
	opTimeout   time.Duration

	mu    sync.Mutex
	conns map[string]*pushConn
}

type pushConn struct {
	c  net.Conn
	rr *memproto.ReplyReader
}

// NewNetPusher creates a pusher with the given per-push dial and I/O
// timeouts (both default to 2s when zero).
func NewNetPusher(dialTimeout, opTimeout time.Duration) *NetPusher {
	if dialTimeout <= 0 {
		dialTimeout = 2 * time.Second
	}
	if opTimeout <= 0 {
		opTimeout = 2 * time.Second
	}
	return &NetPusher{
		dialTimeout: dialTimeout,
		opTimeout:   opTimeout,
		conns:       make(map[string]*pushConn),
	}
}

// Push implements Pusher.
func (p *NetPusher) Push(node string, op PushOp) error {
	var payload []byte
	switch op.Op {
	case OpPut:
		payload = memproto.FormatHKPut(op.Key, op.Flags, exptimeOf(op.Expiry), op.Value, false)
	case OpDel:
		payload = memproto.FormatHKDel(op.Key, false)
	default:
		return fmt.Errorf("hotkey: unknown push op %d", op.Op)
	}

	p.mu.Lock()
	defer p.mu.Unlock()
	pc, ok := p.conns[node]
	if !ok {
		c, err := net.DialTimeout("tcp", node, p.dialTimeout)
		if err != nil {
			return err
		}
		pc = &pushConn{c: c, rr: memproto.NewReplyReader(c)}
		p.conns[node] = pc
	}
	if err := p.do(pc, payload); err != nil {
		_ = pc.c.Close()
		delete(p.conns, node)
		return err
	}
	return nil
}

func (p *NetPusher) do(pc *pushConn, payload []byte) error {
	_ = pc.c.SetDeadline(time.Now().Add(p.opTimeout))
	if _, err := pc.c.Write(payload); err != nil {
		return err
	}
	// Every push kind answers with a single line (STORED, DELETED,
	// NOT_FOUND); any of them means the stream is in sync.
	_, err := pc.rr.ReadSimple()
	return err
}

// Close drops all connections.
func (p *NetPusher) Close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for node, pc := range p.conns {
		_ = pc.c.Close()
		delete(p.conns, node)
	}
}

// exptimeOf converts an expiry time to a wire exptime: zero time means
// "never" (0), anything else is sent as an absolute Unix timestamp.
func exptimeOf(expiry time.Time) int64 {
	if expiry.IsZero() {
		return 0
	}
	return expiry.Unix()
}
