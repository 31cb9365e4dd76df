package client

import (
	"context"

	"repro/internal/hashring"
	"repro/internal/memproto"
)

// Hot-key adaptive routing: RefreshHotKeys polls each node's versioned
// hot-key table (the `hotkeys` command) and, for promoted keys, spreads reads
// across the key's serving set instead of hammering the consistent-hash
// owner. Writes always go to the owner — the home node fans them out to
// replicas — so the client's write path is untouched.

// RefreshHotKeys polls every member's hot-key table and rebuilds the
// routing index. Per-node failures are skipped (the stale table ages out
// on the next successful poll); the merged index only references current
// members.
func (c *Cluster) RefreshHotKeys(ctx context.Context) error {
	for _, m := range c.Members() {
		var entries []memproto.HotKeyTableEntry
		err := c.withConnCtx(ctx, m, func(conn *poolConn) error {
			conn.wbuf = memproto.AppendLine(conn.wbuf[:0], "hotkeys")
			if err := conn.write(conn.wbuf); err != nil {
				return err
			}
			var err error
			_, entries, err = conn.reply.ReadHotKeys()
			return err
		})
		if err != nil {
			continue // unreachable node: keep the previous table
		}
		c.hotMu.Lock()
		c.hotByHome[m] = entries
		c.hotMu.Unlock()
	}
	c.rebuildHotTable()
	return ctx.Err()
}

// rebuildHotTable recomputes the key → serving-set index from the per-home
// tables, dropping departed members both as table sources and as routing
// targets.
func (c *Cluster) rebuildHotTable() {
	members := c.Members()
	current := make(map[string]struct{}, len(members))
	for _, m := range members {
		current[m] = struct{}{}
	}
	c.hotMu.Lock()
	byKey := make(map[string][]string)
	for home, entries := range c.hotByHome {
		if _, ok := current[home]; !ok {
			delete(c.hotByHome, home)
			continue
		}
		for _, e := range entries {
			nodes := make([]string, 0, len(e.Nodes))
			for _, n := range e.Nodes {
				if _, ok := current[n]; ok {
					nodes = append(nodes, n)
				}
			}
			if len(nodes) > 0 {
				byKey[e.Key] = nodes
			}
		}
	}
	c.hotByKey = byKey
	c.hotCount.Store(int64(len(byKey)))
	c.hotMu.Unlock()
}

// routeRead picks the node to read key from under table snapshot t: a
// promoted key rotates through its serving set (cheap splitmix shuffle
// over a shared counter), everything else follows the ownership table's
// read plan. fallback is the retiring owner to forward a miss to when the
// key changes owner in a handover, empty otherwise.
func (c *Cluster) routeRead(t *hashring.Table, key string) (node, fallback string, err error) {
	if c.hotCount.Load() > 0 {
		c.hotMu.RLock()
		nodes := c.hotByKey[key]
		var target string
		if len(nodes) > 0 {
			target = nodes[mix64(c.hotRR.Add(1))%uint64(len(nodes))]
		}
		c.hotMu.RUnlock()
		if target != "" {
			return target, "", nil
		}
	}
	return readPlan(t, key)
}

// readPlan resolves the key's read route under table t.
func readPlan(t *hashring.Table, key string) (primary, fallback string, err error) {
	primary, fallback, err = t.ReadPlan(key)
	return primary, fallback, routeErr(err)
}

// mix64 is the splitmix64 finalizer: it turns the sequential routing
// counter into an unbiased replica choice.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
