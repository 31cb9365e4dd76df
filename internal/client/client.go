// Package client is the libmemcached analog of the paper's testbed
// (Section II-A): a cluster client that hashes keys onto nodes with
// consistent hashing, fans multi-gets out per owner node, and swaps its
// membership when the ElMem Master announces a scaling action. The client
// — not the servers — decides which node owns a key.
//
// Every exchange with one target node runs start to finish on the calling
// goroutine, encoding into and decoding from scratch owned by the pooled
// connection; goroutines are spent only on a multi-get that spans several
// owners, and then only for the owners beyond the first.
package client

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/hashring"
	"repro/internal/memproto"
)

var (
	// ErrClosed is returned after Close.
	ErrClosed = errors.New("client: closed")
	// ErrNoMembers is returned when the membership is empty.
	ErrNoMembers = errors.New("client: no members")
)

// Cluster is a consistent-hashing Memcached cluster client. Member names
// are their TCP addresses. It is safe for concurrent use.
type Cluster struct {
	dialTimeout time.Duration
	opTimeout   time.Duration
	maxIdle     int

	// table is the ownership table the client routes by. A lock-free
	// atomic pointer: every op loads it once and works against that
	// immutable snapshot, so a concurrent handover announcement never
	// tears a half-routed operation. Updated by OwnershipChanged (the
	// master's handover announcements).
	table atomic.Pointer[hashring.Table]

	mu    sync.RWMutex
	pools map[string]*pool
	// closed is set under mu (so no pool is created after Close) and read
	// without it by Owner; every exchange learns it from pool().
	closed atomic.Bool

	// Hot-key routing state (see hotkeys.go). hotCount gates the read path
	// so clusters with no promotions pay one atomic load per read.
	hotMu       sync.RWMutex
	hotByHome   map[string][]memproto.HotKeyTableEntry
	hotByKey    map[string][]string
	hotVersions map[string]uint64
	hotCount    atomic.Int64
	hotRR       atomic.Uint64
}

// Option configures a Cluster.
type Option interface {
	apply(*options)
}

type options struct {
	dialTimeout time.Duration
	opTimeout   time.Duration
	maxIdle     int
}

type dialTimeoutOption time.Duration

func (o dialTimeoutOption) apply(opts *options) { opts.dialTimeout = time.Duration(o) }

// WithDialTimeout bounds connection establishment (default 2s).
func WithDialTimeout(d time.Duration) Option { return dialTimeoutOption(d) }

type opTimeoutOption time.Duration

func (o opTimeoutOption) apply(opts *options) { opts.opTimeout = time.Duration(o) }

// WithOpTimeout bounds each request/response exchange (default 5s).
func WithOpTimeout(d time.Duration) Option { return opTimeoutOption(d) }

type maxIdleOption int

func (o maxIdleOption) apply(opts *options) { opts.maxIdle = int(o) }

// WithMaxIdleConns bounds pooled idle connections per node (default 4).
func WithMaxIdleConns(n int) Option { return maxIdleOption(n) }

// New creates a cluster client over the given member addresses.
func New(members []string, opts ...Option) (*Cluster, error) {
	o := options{
		dialTimeout: 2 * time.Second,
		opTimeout:   5 * time.Second,
		maxIdle:     4,
	}
	for _, opt := range opts {
		opt.apply(&o)
	}
	table, err := hashring.NewTable(members)
	if err != nil {
		return nil, err
	}
	c := &Cluster{
		dialTimeout: o.dialTimeout,
		opTimeout:   o.opTimeout,
		maxIdle:     o.maxIdle,
		pools:       make(map[string]*pool),
		hotByHome:   make(map[string][]memproto.HotKeyTableEntry),
		hotByKey:    make(map[string][]string),
		hotVersions: make(map[string]uint64),
	}
	c.table.Store(table)
	return c, nil
}

// Members returns the member set the client routes over (the union of
// outgoing and incoming owners while a handover is in flight).
func (c *Cluster) Members() []string {
	return c.table.Load().Members()
}

// OwnershipChanged installs a newer ownership table
// (core.OwnershipListener). Stale announcements — version at or below the
// installed table's — are dropped, so listener delivery order can never
// regress routing. Pools for departed members are closed, and promotions
// referencing them stop routing there at once; the next hot-key poll
// repopulates entries that survived.
func (c *Cluster) OwnershipChanged(t *hashring.Table) {
	if t == nil {
		return
	}
	for {
		cur := c.table.Load()
		if cur != nil && cur.Version() >= t.Version() {
			return
		}
		if c.table.CompareAndSwap(cur, t) {
			break
		}
	}
	c.prunePools(t.Members())
	c.rebuildHotTable()
}

// OwnershipVersion reports the installed table's version (observability).
func (c *Cluster) OwnershipVersion() uint64 {
	return c.table.Load().Version()
}

// prunePools closes pools for nodes outside the current member set.
func (c *Cluster) prunePools(members []string) {
	current := make(map[string]struct{}, len(members))
	for _, m := range members {
		current[m] = struct{}{}
	}
	c.mu.Lock()
	var stale []*pool
	for addr, p := range c.pools {
		if _, ok := current[addr]; !ok {
			stale = append(stale, p)
			delete(c.pools, addr)
		}
	}
	c.mu.Unlock()
	for _, p := range stale {
		p.close()
	}
}

// Owner reports which member authoritatively owns the key: the outgoing
// owner until the table settles, the incoming owner after.
// Conditional ops (cas/add/replace/counters/touch) route here so their
// read-modify-write semantics stay anchored to one node per table.
func (c *Cluster) Owner(key string) (string, error) {
	if c.closed.Load() {
		return "", ErrClosed
	}
	owner, err := c.table.Load().Owner(key)
	return owner, routeErr(err)
}

// routeErr maps the ring's empty-membership error to the client's.
func routeErr(err error) error {
	if errors.Is(err, hashring.ErrEmptyRing) {
		return ErrNoMembers
	}
	return err
}

// Get fetches one key. A miss returns (nil, false, nil).
func (c *Cluster) Get(key string) ([]byte, bool, error) {
	return c.GetContext(context.Background(), key)
}

// GetContext is Get bounded by ctx's deadline. It is one exchange on the
// calling goroutine; a miss costs a second one only where another node may
// still hold the key.
func (c *Cluster) GetContext(ctx context.Context, key string) ([]byte, bool, error) {
	t := c.table.Load()
	node, fallback, err := c.routeRead(t, key)
	if err != nil {
		return nil, false, err
	}
	value, _, hit, err := c.getOn(ctx, node, key)
	if err == nil && !hit && fallback != "" {
		// The key is changing owner and its migration frame may not have
		// landed yet: forward the miss to the retiring owner. If that owner
		// has gone since, a newer table no longer routes the key to it, and
		// the miss on the incoming owner stands.
		node = fallback
		value, _, hit, err = c.getOn(ctx, node, key)
		if err != nil && c.moot(t, key, node) {
			value, hit, err = nil, false, nil
		}
	}
	if err == nil && !hit && c.hotCount.Load() > 0 {
		// A replica that has not received its copy yet (promotion push in
		// flight, or the copy was evicted) misses where the home would hit.
		if owner, ownerErr := t.Owner(key); ownerErr == nil && owner != node {
			node = owner
			value, _, hit, err = c.getOn(ctx, node, key)
		}
	}
	if err != nil {
		return nil, false, fmt.Errorf("get from %s: %w", node, err)
	}
	return value, hit, nil
}

// MultiGet fetches many keys with one round trip per owner node,
// mirroring libmemcached's multi-get (Section V-A). Missing keys are
// simply absent from the result.
func (c *Cluster) MultiGet(keys []string) (map[string][]byte, error) {
	return c.MultiGetContext(context.Background(), keys)
}

// route is where one key of a multi-get is read: node first, then, for a
// key changing owner mid-handover, the retiring owner.
type route struct {
	node, fallback string
}

// MultiGetContext is MultiGet bounded by ctx's deadline. Keys that share an
// owner travel in one exchange; different owners are fetched concurrently.
func (c *Cluster) MultiGetContext(ctx context.Context, keys []string) (map[string][]byte, error) {
	if len(keys) == 0 {
		return nil, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	t := c.table.Load()
	hotRouting := c.hotCount.Load() > 0
	var routeBuf [16]route // a web-tier multi-get routes without allocating
	routes := routeBuf[:0]
	forwardable := false
	for _, key := range keys {
		node, fallback, err := c.routeRead(t, key)
		if err != nil {
			return nil, err
		}
		routes = append(routes, route{node: node, fallback: fallback})
		forwardable = forwardable || fallback != ""
	}

	out := make(map[string][]byte, len(keys))
	missed := func(i int) bool {
		_, ok := out[keys[i]]
		return !ok
	}
	err := c.fetch(ctx, keys, out, func(i int) string { return routes[i].node })
	if err == nil && forwardable {
		// Misses on in-flight keys go to the retiring owner before they
		// are reported, as in GetContext.
		err = c.fetch(ctx, keys, out, func(i int) string {
			if !missed(i) {
				return ""
			}
			return routes[i].fallback
		})
	}
	if err == nil && hotRouting {
		// Replica misses are re-read from the ring owner; a key that was
		// read there already is a true miss.
		err = c.fetch(ctx, keys, out, func(i int) string {
			owner, ownerErr := t.Owner(keys[i])
			if ownerErr != nil || !missed(i) || owner == routes[i].node || owner == routes[i].fallback {
				return ""
			}
			return owner
		})
	}
	if err != nil {
		return nil, err
	}
	return out, nil
}

// ownerGroup is the keys of a multi-get that one node serves.
type ownerGroup struct {
	node string
	keys []string
}

// fetch reads every keys[i] whose target(i) is non-empty from that node and
// merges the hits into out. Members are a handful, so groups are found by
// a linear scan.
func (c *Cluster) fetch(ctx context.Context, keys []string, out map[string][]byte, target func(i int) string) error {
	single := target(0)
	for i := 1; i < len(keys) && single != ""; i++ {
		if target(i) != single {
			single = ""
		}
	}
	if single != "" {
		return c.getInto(ctx, ownerGroup{node: single, keys: keys}, out) // no regrouping: keys as they came
	}
	var groupBuf [4]ownerGroup
	groups := groupBuf[:0]
	for i, key := range keys {
		node := target(i)
		if node == "" {
			continue
		}
		g := 0
		for g < len(groups) && groups[g].node != node {
			g++
		}
		if g == len(groups) {
			groups = append(groups, ownerGroup{node: node, keys: make([]string, 0, len(keys)-i)})
		}
		groups[g].keys = append(groups[g].keys, key)
	}
	if len(groups) == 0 {
		return nil
	}
	return c.fanOut(ctx, groups, out)
}

// getInto runs one group's multi-get on the calling goroutine, storing the
// hits straight into out.
func (c *Cluster) getInto(ctx context.Context, g ownerGroup, out map[string][]byte) error {
	err := c.getFromNode(ctx, g.node, g.keys, func(key string, _ uint32, value []byte) {
		out[key] = value
	})
	if err != nil {
		return fmt.Errorf("multi-get from %s: %w", g.node, err)
	}
	return nil
}

// fanOut overlaps the exchanges of a multi-get's owner groups: the first
// runs on the calling goroutine, each other one (if any) on its own, and
// their hits are merged into out once all have returned.
func (c *Cluster) fanOut(ctx context.Context, groups []ownerGroup, out map[string][]byte) error {
	type hit struct {
		key   string
		value []byte
	}
	type result struct {
		hits []hit
		err  error
	}
	results := make([]result, len(groups)-1)
	var wg sync.WaitGroup
	for i, g := range groups[1:] {
		wg.Add(1)
		go func(r *result, g ownerGroup) {
			defer wg.Done()
			r.err = c.getFromNode(ctx, g.node, g.keys, func(key string, _ uint32, value []byte) {
				r.hits = append(r.hits, hit{key: key, value: value})
			})
		}(&results[i], g)
	}
	err := c.getInto(ctx, groups[0], out)
	wg.Wait()
	for i, r := range results {
		if r.err != nil && err == nil {
			err = fmt.Errorf("multi-get from %s: %w", groups[i+1].node, r.err)
		}
		for _, h := range r.hits {
			out[h.key] = h.value
		}
	}
	return err
}

// Set stores the value on the key's owner node.
func (c *Cluster) Set(key string, value []byte) error {
	return c.SetContext(context.Background(), key, value)
}

// SetContext is Set bounded by ctx's deadline. While the key is changing
// owner mid-handover the write is dual-applied to the incoming and outgoing
// owners, so reads stay consistent whichever side serves them; both
// stores must succeed.
func (c *Cluster) SetContext(ctx context.Context, key string, value []byte) error {
	return c.writeLegs(key, func(node string) error { return c.setOn(ctx, node, key, value) })
}

// writeLegs applies a write to every node of the key's write plan under
// one table snapshot: the owner, and mid-handover the other side too. A
// leg that fails is moot, not an error, when a newer table no longer
// routes the key to that node: a settle retired the outgoing owner (and
// may have stopped it) between the plan and the leg, or a rollback dropped
// the incoming one. Either way the node the key now lives on had its own
// leg.
func (c *Cluster) writeLegs(key string, apply func(node string) error) error {
	t := c.table.Load()
	primary, second, err := t.WritePlan(key)
	if err != nil {
		return routeErr(err)
	}
	for _, node := range [2]string{primary, second} {
		if node == "" {
			continue
		}
		if err := apply(node); err != nil && !c.moot(t, key, node) {
			return err
		}
	}
	return nil
}

// moot reports whether a failed leg to node, planned under table t, no
// longer matters: the installed table is newer than t and neither reads
// nor writes the key on node.
func (c *Cluster) moot(t *hashring.Table, key, node string) bool {
	cur := c.table.Load()
	if cur.Version() == t.Version() {
		return false
	}
	primary, second, err := cur.WritePlan(key)
	return err == nil && primary != node && second != node
}

func (c *Cluster) setOn(ctx context.Context, node, key string, value []byte) error {
	return c.withConnCtx(ctx, node, func(conn *poolConn) error {
		conn.wbuf = memproto.AppendSet(conn.wbuf[:0], key, 0, 0, value, false)
		if err := conn.write(conn.wbuf); err != nil {
			return err
		}
		line, err := conn.reply.ReadSimple()
		if err != nil {
			return err
		}
		if line != "STORED" {
			return fmt.Errorf("client: set %q: unexpected reply %q", key, line)
		}
		return nil
	})
}

// Delete removes the key from its owner node; deleting a missing key is
// not an error and returns false.
func (c *Cluster) Delete(key string) (bool, error) {
	return c.DeleteContext(context.Background(), key)
}

// DeleteContext is Delete bounded by ctx's deadline. Mid-handover the
// delete is dual-applied like Set, so the copy on the retiring owner
// cannot resurrect via a fallback read.
func (c *Cluster) DeleteContext(ctx context.Context, key string) (bool, error) {
	deleted := false
	err := c.writeLegs(key, func(node string) error {
		d, err := c.deleteOn(ctx, node, key)
		deleted = deleted || d
		return err
	})
	return deleted, err
}

func (c *Cluster) deleteOn(ctx context.Context, node, key string) (bool, error) {
	deleted := false
	err := c.withConnCtx(ctx, node, func(conn *poolConn) error {
		conn.wbuf = memproto.AppendDelete(conn.wbuf[:0], key, false)
		if err := conn.write(conn.wbuf); err != nil {
			return err
		}
		line, err := conn.reply.ReadSimple()
		if err != nil {
			return err
		}
		switch line {
		case "DELETED":
			deleted = true
			return nil
		case "NOT_FOUND":
			return nil
		default:
			return fmt.Errorf("client: delete %q: unexpected reply %q", key, line)
		}
	})
	return deleted, err
}

// StatsAll gathers stats from every member.
func (c *Cluster) StatsAll() (map[string]map[string]string, error) {
	out := make(map[string]map[string]string)
	for _, member := range c.Members() {
		var stats map[string]string
		err := c.withConn(member, func(conn *poolConn) error {
			if err := conn.write([]byte("stats\r\n")); err != nil {
				return err
			}
			var err error
			stats, err = conn.reply.ReadStats()
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("stats from %s: %w", member, err)
		}
		out[member] = stats
	}
	return out, nil
}

// Close releases every pooled connection.
func (c *Cluster) Close() {
	c.mu.Lock()
	if c.closed.Load() {
		c.mu.Unlock()
		return
	}
	c.closed.Store(true)
	pools := make([]*pool, 0, len(c.pools))
	for _, p := range c.pools {
		pools = append(pools, p)
	}
	c.pools = make(map[string]*pool)
	c.mu.Unlock()
	for _, p := range pools {
		p.close()
	}
}

// getOn issues one single-key get on node: the one exchange Get, its miss
// forwarding and the lease forward path share.
func (c *Cluster) getOn(ctx context.Context, node, key string) (value []byte, flags uint32, hit bool, err error) {
	err = c.getFromNode(ctx, node, []string{key}, func(_ string, f uint32, v []byte) {
		value, flags, hit = v, f, true
	})
	return value, flags, hit, err
}

// getFromNode issues one (multi-)get to a node and calls emit for every
// hit with the caller's key string and a fresh copy of the value. The
// server emits VALUE blocks in request order — an ordered subsequence of
// keys — so hits are matched positionally while they stream in: no
// per-node result map and no re-allocated key strings, just one value
// copy per hit.
func (c *Cluster) getFromNode(ctx context.Context, addr string, keys []string, emit func(key string, flags uint32, value []byte)) error {
	return c.withConnCtx(ctx, addr, func(conn *poolConn) error {
		conn.wbuf = memproto.AppendGet(conn.wbuf[:0], keys)
		if err := conn.write(conn.wbuf); err != nil {
			return err
		}
		j := 0
		for {
			key, value, flags, _, more, err := conn.reply.ReadValue()
			if err != nil || !more {
				return err
			}
			for j < len(keys) && keys[j] != string(key) {
				j++ // keys[j] missed: no VALUE block was emitted for it
			}
			if j == len(keys) {
				return fmt.Errorf("client: unexpected key %q in get reply", key)
			}
			emit(keys[j], flags, append(make([]byte, 0, len(value)), value...))
			j++
		}
	})
}

// withConn runs fn with a pooled connection to addr, discarding the
// connection on error.
func (c *Cluster) withConn(addr string, fn func(*poolConn) error) error {
	return c.withConnCtx(context.Background(), addr, fn)
}

// withConnCtx is withConn under a context. The connection deadline — the
// tighter of the op timeout and ctx's deadline — is armed once per
// exchange; every checkout re-arms it, so nothing clears it on the way
// back. A context that can be cancelled additionally gets a watcher that
// closes the connection, so a blocked exchange aborts immediately;
// context.Background and friends skip it.
func (c *Cluster) withConnCtx(ctx context.Context, addr string, fn func(*poolConn) error) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	p, err := c.pool(addr)
	if err != nil {
		return err
	}
	conn, err := p.get(c.dialTimeout)
	if err != nil {
		return err
	}
	var deadline time.Time
	if c.opTimeout > 0 {
		deadline = time.Now().Add(c.opTimeout)
	}
	if d, ok := ctx.Deadline(); ok && (deadline.IsZero() || d.Before(deadline)) {
		deadline = d
	}
	_ = conn.nc.SetDeadline(deadline)
	stop := func() bool { return true } // nothing to cancel: never fired
	if ctx.Done() != nil {
		stop = context.AfterFunc(ctx, func() { _ = conn.nc.Close() })
	}
	err = fn(conn)
	if !stop() || err != nil {
		_ = conn.nc.Close()
		if ctxErr := ctx.Err(); ctxErr != nil {
			return ctxErr
		}
		return err
	}
	p.put(conn)
	return nil
}

// pool returns (creating if needed) the pool for addr.
func (c *Cluster) pool(addr string) (*pool, error) {
	c.mu.RLock()
	p, ok := c.pools[addr]
	c.mu.RUnlock()
	if ok {
		return p, nil // Close empties the map, so a hit means still open
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed.Load() {
		return nil, ErrClosed
	}
	if p, ok := c.pools[addr]; ok {
		return p, nil
	}
	p = newPool(addr, c.maxIdle)
	c.pools[addr] = p
	return p, nil
}

// pool is a small idle-connection pool for one node.
type pool struct {
	addr    string
	maxIdle int

	mu     sync.Mutex
	idle   []*poolConn // most recently used last
	closed bool
}

func newPool(addr string, maxIdle int) *pool {
	if maxIdle < 1 {
		maxIdle = 1
	}
	return &pool{addr: addr, maxIdle: maxIdle}
}

// maxScratch bounds the encode buffer a pooled connection keeps between
// requests; a larger one (a big set) is dropped on the way back.
const maxScratch = 64 << 10

// poolConn is one pooled connection with the scratch its exchanges use:
// the reply reader's buffers and wbuf, the request encode buffer
// (conn.wbuf = memproto.Append*(conn.wbuf[:0], …), then write it).
type poolConn struct {
	nc    net.Conn
	reply *memproto.ReplyReader
	wbuf  []byte
}

func (p *pool) get(dialTimeout time.Duration) (*poolConn, error) {
	p.mu.Lock()
	if n := len(p.idle); n > 0 {
		conn := p.idle[n-1]
		p.idle = p.idle[:n-1]
		p.mu.Unlock()
		return conn, nil
	}
	p.mu.Unlock()
	nc, err := net.DialTimeout("tcp", p.addr, dialTimeout)
	if err != nil {
		return nil, fmt.Errorf("client: dial %s: %w", p.addr, err)
	}
	return &poolConn{nc: nc, reply: memproto.NewReplyReader(nc)}, nil
}

// put parks a healthy connection for reuse. A pool that was closed while
// the connection was checked out — its node left the membership, or the
// client closed — closes it instead: nothing would ever drain it.
func (p *pool) put(conn *poolConn) {
	if cap(conn.wbuf) > maxScratch {
		conn.wbuf = nil
	}
	p.mu.Lock()
	if !p.closed && len(p.idle) < p.maxIdle {
		p.idle = append(p.idle, conn)
		p.mu.Unlock()
		return
	}
	p.mu.Unlock()
	_ = conn.nc.Close()
}

// close closes the idle connections and makes every later put close its
// connection too.
func (p *pool) close() {
	p.mu.Lock()
	idle := p.idle
	p.idle, p.closed = nil, true
	p.mu.Unlock()
	for _, conn := range idle {
		_ = conn.nc.Close()
	}
}

func (conn *poolConn) write(b []byte) error {
	_, err := conn.nc.Write(b)
	return err
}
