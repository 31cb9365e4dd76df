// Package cluster wires a complete local ElMem deployment with one call:
// N Memcached nodes served over TCP, their Agents and RPC endpoints, a
// Master, and a consistent-hashing client whose routing follows the
// Master's scaling actions. It is the embedding API a downstream user
// starts from, and what the examples and integration tests build on.
//
// The Master announces membership one way: versioned ownership tables,
// delivered to everything subscribed through Master.Subscribe — the
// client, and every node's server, agent and (with hot keys on)
// replicator. Node names are their client-facing cache addresses, so the
// tables feed the client directly.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"slices"
	"sort"
	"sync"

	"repro/internal/agent"
	"repro/internal/agentrpc"
	"repro/internal/cache"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/hotkey"
	"repro/internal/server"
)

// ErrClosed is returned by operations on a closed cluster.
var ErrClosed = errors.New("cluster: closed")

// Config parameterizes StartLocal.
type Config struct {
	// Nodes is the initial tier size (default 3).
	Nodes int
	// NodeMemory is each node's cache budget in bytes (default 8 MiB).
	NodeMemory int64
	// Host is the listen host (default 127.0.0.1, ephemeral ports).
	Host string
	// Logger receives node diagnostics (default: discarded).
	Logger *log.Logger
	// HotKeys, when non-nil, enables hot-key detection and replicated
	// serving on every node with the given configuration.
	HotKeys *hotkey.Config
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.Nodes <= 0 {
		out.Nodes = 3
	}
	if out.NodeMemory <= 0 {
		out.NodeMemory = 8 * cache.PageSize
	}
	if out.Host == "" {
		out.Host = "127.0.0.1"
	}
	if out.Logger == nil {
		out.Logger = log.New(io.Discard, "", 0)
	}
	return out
}

// node bundles one running cache node.
type node struct {
	name   string
	cache  *cache.Cache
	agent  *agent.Agent
	server *server.Server
	rpc    *agentrpc.Server
	hot    *hotkey.Replicator
	pusher *hotkey.NetPusher

	// unsubscribe drops the node's listeners from the Master. Listener
	// lifetime is node lifetime: a retired node left subscribed would be
	// pinned (arena, index and all) and called on every announcement.
	unsubscribe []func()
}

// subscribe registers the node's listeners with the Master's ownership
// table: servers gate lease fills into the gutter, agents gate stale
// imports, and the hot-key replicator follows each settled membership.
func (n *node) subscribe(master *core.Master) {
	n.unsubscribe = append(n.unsubscribe,
		master.Subscribe(n.server),
		master.Subscribe(n.agent))
	if n.hot != nil {
		n.unsubscribe = append(n.unsubscribe, master.Subscribe(n.hot))
	}
}

// stop unsubscribes the node and closes everything it runs.
func (n *node) stop() error {
	for _, cancel := range n.unsubscribe {
		cancel()
	}
	if n.hot != nil {
		n.hot.Stop()
	}
	if n.pusher != nil {
		n.pusher.Close()
	}
	err := n.server.Close()
	if rpcErr := n.rpc.Close(); err == nil {
		err = rpcErr
	}
	return err
}

// Cluster is a running local ElMem deployment.
type Cluster struct {
	cfg    Config
	book   *agentrpc.AddressBook
	master *core.Master
	client *client.Cluster

	mu     sync.Mutex
	nodes  map[string]*node
	closed bool
}

// StartLocal boots the deployment.
func StartLocal(cfg Config) (*Cluster, error) {
	c := &Cluster{
		cfg:   cfg.withDefaults(),
		book:  agentrpc.NewAddressBook(),
		nodes: make(map[string]*node),
	}
	var members []string
	for i := 0; i < c.cfg.Nodes; i++ {
		n, err := c.startNode()
		if err != nil {
			_ = c.Close()
			return nil, err
		}
		members = append(members, n.name)
	}
	sort.Strings(members)

	master, err := core.NewMaster(
		c.book,
		members,
		core.WithNodeStopper(c.stopNode),
	)
	if err != nil {
		_ = c.Close()
		return nil, err
	}
	c.master = master
	c.mu.Lock()
	nodes := make([]*node, 0, len(c.nodes))
	for _, n := range c.nodes {
		nodes = append(nodes, n)
	}
	c.mu.Unlock()
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].name < nodes[j].name })
	for _, n := range nodes {
		n.subscribe(master)
	}

	cl, err := client.New(members)
	if err != nil {
		_ = c.Close()
		return nil, err
	}
	c.client = cl
	master.Subscribe(cl)
	return c, nil
}

// startNode boots one cache node and registers it everywhere.
func (c *Cluster) startNode() (*node, error) {
	cc, err := cache.New(c.cfg.NodeMemory)
	if err != nil {
		return nil, err
	}
	srv, err := server.Listen(c.cfg.Host+":0", cc, server.WithLogger(c.cfg.Logger))
	if err != nil {
		return nil, err
	}
	name := srv.Addr()
	ag, err := agent.New(name, cc, c.book)
	if err != nil {
		_ = srv.Close()
		return nil, err
	}
	rpc, err := agentrpc.Serve(c.cfg.Host+":0", ag, c.cfg.Logger)
	if err != nil {
		_ = srv.Close()
		return nil, err
	}
	c.book.Register(name, rpc.Addr())
	n := &node{name: name, cache: cc, agent: ag, server: srv, rpc: rpc}
	if c.cfg.HotKeys != nil {
		n.pusher = hotkey.NewNetPusher(0, 0)
		n.hot = hotkey.New(name, cc, n.pusher, *c.cfg.HotKeys)
		n.hot.Start()
		srv.SetHotKeys(n.hot)
		ag.SetOwnedFilter(n.hot.IsOwned)
	}
	if c.master != nil {
		// Scale-out path: the initial StartLocal loop runs before the
		// Master exists and subscribes there instead.
		n.subscribe(c.master)
	}
	c.mu.Lock()
	c.nodes[name] = n
	c.mu.Unlock()
	c.cfg.Logger.Printf("cluster: node %s up (agent %s)", name, rpc.Addr())
	return n, nil
}

// stopNode is the Master's node stopper (and the ScaleOut-abort teardown):
// drop the node from the book and the Master's listeners, and close its
// servers.
func (c *Cluster) stopNode(name string) error {
	c.mu.Lock()
	n, ok := c.nodes[name]
	delete(c.nodes, name)
	c.mu.Unlock()
	if !ok {
		return nil
	}
	c.book.Deregister(name)
	err := n.stop()
	c.cfg.Logger.Printf("cluster: node %s retired", name)
	return err
}

// TickHotKeys runs one promotion/demotion evaluation on every node, in
// name order so tests get deterministic push sequences. It is a no-op
// when hot-key serving is disabled.
func (c *Cluster) TickHotKeys() {
	c.mu.Lock()
	nodes := make([]*node, 0, len(c.nodes))
	for _, n := range c.nodes {
		if n.hot != nil {
			nodes = append(nodes, n)
		}
	}
	c.mu.Unlock()
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].name < nodes[j].name })
	for _, n := range nodes {
		n.hot.Tick()
	}
}

// HotKeys returns a member's replicator (nil when disabled).
func (c *Cluster) HotKeys(name string) *hotkey.Replicator {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n, ok := c.nodes[name]; ok {
		return n.hot
	}
	return nil
}

// Client returns the consistent-hashing client, already subscribed to
// the Master's ownership tables.
func (c *Cluster) Client() *client.Cluster { return c.client }

// Members returns the current membership.
func (c *Cluster) Members() []string { return c.master.Members() }

// Node returns a member's cache for inspection (tests, stats).
func (c *Cluster) Node(name string) (*cache.Cache, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	n, ok := c.nodes[name]
	if !ok {
		return nil, fmt.Errorf("cluster: unknown node %q", name)
	}
	return n.cache, nil
}

// ScaleIn retires x nodes with the full ElMem migration and shuts them
// down; the client's routing follows automatically. Cancelling ctx
// aborts the migration before the table settles on the retained nodes.
func (c *Cluster) ScaleIn(ctx context.Context, x int) (*core.ScaleReport, error) {
	c.mu.Lock()
	closed := c.closed
	c.mu.Unlock()
	if closed {
		return nil, ErrClosed
	}
	return c.master.ScaleIn(ctx, x)
}

// ScaleOut boots x fresh nodes, migrates their hash share to them, and
// settles the ownership table on the grown membership. On a migration
// failure the Master rolled back, the freshly booted nodes are torn down
// again so the cluster returns to its pre-call state. A failure after the
// table settled (a release that kept failing) leaves them adopted: they
// already own their keys.
func (c *Cluster) ScaleOut(ctx context.Context, x int) (*core.ScaleReport, error) {
	c.mu.Lock()
	closed := c.closed
	c.mu.Unlock()
	if closed {
		return nil, ErrClosed
	}
	if x < 1 {
		return nil, fmt.Errorf("cluster: scale out by %d", x)
	}
	var added []string
	for i := 0; i < x; i++ {
		n, err := c.startNode()
		if err != nil {
			return nil, err
		}
		added = append(added, n.name)
	}
	report, err := c.master.ScaleOut(ctx, added)
	if err != nil {
		members := c.master.Members()
		for _, name := range added {
			if !slices.Contains(members, name) {
				_ = c.stopNode(name)
			}
		}
	}
	return report, err
}

// TotalItems sums resident items across members.
func (c *Cluster) TotalItems() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	total := 0
	for _, n := range c.nodes {
		total += n.cache.Len()
	}
	return total
}

// Close shuts every node down and releases the client.
func (c *Cluster) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	nodes := make([]*node, 0, len(c.nodes))
	for _, n := range c.nodes {
		nodes = append(nodes, n)
	}
	c.nodes = make(map[string]*node)
	c.mu.Unlock()

	if c.client != nil {
		c.client.Close()
	}
	var firstErr error
	for _, n := range nodes {
		if err := n.stop(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	c.book.Close()
	return firstErr
}
