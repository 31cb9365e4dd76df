package e2eharness

import (
	"bufio"
	"bytes"
	"fmt"
	"math/rand"
	"net"
	"strings"
	"syscall"
	"time"

	"repro/internal/cache"
	"repro/internal/client"
	"repro/internal/faultnet"
	"repro/internal/store"
	"repro/internal/workload"
)

// Scenarios returns the full scripted suite in run order.
func Scenarios() []Scenario {
	return []Scenario{
		{
			Name:     "node-crash-mid-migration",
			Describe: "SIGKILL a migration receiver mid-stream, restart it, rerun the scale-in to completion",
			Run:      scenarioNodeCrashMidMigration,
		},
		{
			Name:     "master-restart-resume",
			Describe: "SIGKILL the master mid-migration; the cluster keeps serving and a fresh master completes the operation",
			Run:      scenarioMasterRestartResume,
		},
		{
			Name:     "partition-heal",
			Describe: "partition a master->agent control link so the scale-in aborts unharmed, then heal and complete it",
			Run:      scenarioPartitionHeal,
		},
		{
			Name:     "clock-skew",
			Describe: "skewed node clocks distort III-C coldness scoring deterministically; migration still completes with integrity",
			Run:      scenarioClockSkew,
		},
		{
			Name:     "large-payload-sweep",
			Describe: "payload sizes from 1B to the slab ceiling round-trip, oversized values fail cleanly, and large values migrate",
			Run:      scenarioLargePayloadSweep,
		},
		{
			Name:     "warm-restart-snapshot",
			Describe: "SIGTERM snapshot + restart serves a hit-rate at least 2x a cold-start control",
			Run:      scenarioWarmRestartSnapshot,
		},
	}
}

// agentProxies interposes a faultnet proxy on every directed agent->agent
// link: node i's -peers entries point at proxies instead of the real
// agent ports, so the harness can throttle, partition, or delay the
// migration data plane between real processes. Returns per-node peers
// maps keyed by peer node name.
func agentProxies(t *T, netw *faultnet.Network, specs []NodeSpec) []map[string]string {
	peers := make([]map[string]string, len(specs))
	for i := range specs {
		peers[i] = make(map[string]string)
		for j := range specs {
			if i == j {
				continue
			}
			pr, err := faultnet.NewProxy(netw, specs[i].Name(), specs[j].Name(), specs[j].AgentAddr)
			if err != nil {
				t.Fatalf("proxy %s->%s: %v", specs[i].Name(), specs[j].Name(), err)
			}
			t.Cleanup(func() { _ = pr.Close() })
			peers[i][specs[j].Name()] = pr.Addr()
		}
	}
	return peers
}

// nodesArg renders the -nodes argument for elmem-master, mapping node
// names to the agent addresses the master should dial.
func nodesArg(specs []NodeSpec, agentAddr func(NodeSpec) string) string {
	parts := make([]string, len(specs))
	for i, sp := range specs {
		parts[i] = sp.Name() + "=" + agentAddr(sp)
	}
	return strings.Join(parts, ",")
}

// membersOf lists the cache addresses (== names) of specs.
func membersOf(specs []NodeSpec) []string {
	out := make([]string, len(specs))
	for i, sp := range specs {
		out[i] = sp.Addr
	}
	return out
}

// newClusterClient builds a client over members or fails the scenario.
func newClusterClient(t *T, members []string) *client.Cluster {
	cl, err := client.New(members)
	if err != nil {
		t.Fatalf("client: %v", err)
	}
	t.Cleanup(cl.Close)
	return cl
}

// parseMembers extracts the post-scale membership from elmem-master
// output ("members=a,b" on success).
func parseMembers(t *T, masterOut string) []string {
	for _, line := range strings.Split(masterOut, "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "members="); ok {
			return strings.Split(rest, ",")
		}
	}
	t.Fatalf("no members= line in master output:\n%s", masterOut)
	return nil
}

// runMaster spawns an elmem-master action and waits for it, returning
// its wait error (nil = exit 0) and captured output.
func runMaster(t *T, procName string, timeout time.Duration, args ...string) (error, string) {
	p := t.Spawn(procName, t.Bins.Master, args...)
	err, ok := p.Wait(timeout)
	if !ok {
		t.Fatalf("%s did not exit within %v", procName, timeout)
	}
	return err, p.Output()
}

func scenarioNodeCrashMidMigration(t *T) {
	specs := t.NewNodeSpecs(3)
	netw := faultnet.New(t.Seed)
	peers := agentProxies(t, netw, specs)
	// Throttle the data plane so the stream is killable mid-flight.
	for i := range specs {
		for j := range specs {
			if i != j {
				netw.SetLinkRule(specs[i].Name(), specs[j].Name(), faultnet.Rule{ThrottleBPS: 128 << 10})
			}
		}
	}
	procs := make([]*Proc, len(specs))
	for i, sp := range specs {
		procs[i] = t.StartNode(fmt.Sprintf("node%c", 'A'+i), sp, peers[i], "-memory-mb", "64")
	}

	oracle := NewOracle(t.Seed)
	cl := newClusterClient(t, membersOf(specs))
	if err := oracle.Populate(cl, "crash", 4000, 64, 512); err != nil {
		t.Fatalf("populate: %v", err)
	}
	t.Logf("populated %d acked keys", oracle.Acked())

	base := make([]int64, len(specs))
	for i, sp := range specs {
		c, err := MigrationCounters(sp.DebugAddr)
		if err != nil {
			t.Fatalf("counters %s: %v", sp.Name(), err)
		}
		base[i] = c.PairsImported
	}

	master := t.Spawn("master-run1", t.Bins.Master,
		"-nodes", nodesArg(specs, func(sp NodeSpec) string { return sp.AgentAddr }),
		"-scale-in", "1", "-timeout", "30s")

	// Find a receiver with imports flowing and crash it mid-stream.
	victim := -1
	if !PollUntil(20*time.Second, func() bool {
		for i, sp := range specs {
			c, err := MigrationCounters(sp.DebugAddr)
			if err == nil && c.PairsImported > base[i] {
				victim = i
				return true
			}
		}
		return false
	}) {
		t.Fatalf("no node imported any pairs within 20s of the scale-in\nmaster:\n%s", master.Output())
	}
	t.Logf("killing migration receiver %s mid-import", specs[victim].Name())
	procs[victim].Kill()

	if err, ok := master.Wait(60 * time.Second); !ok {
		t.Fatalf("master run 1 wedged after receiver crash")
	} else {
		t.Logf("master run 1 after crash: err=%v", err)
	}

	// Survivors must still serve.
	for i, sp := range specs {
		if i == victim {
			continue
		}
		if err := WaitMemcachedReady(sp.Addr, 5*time.Second); err != nil {
			t.Fatalf("survivor %s: %v", sp.Name(), err)
		}
	}

	t.Logf("restarting crashed node %s", specs[victim].Name())
	procs[victim] = t.StartNode(fmt.Sprintf("node%c-restarted", 'A'+victim), specs[victim], peers[victim], "-memory-mb", "64")

	// Unthrottle so the rerun completes promptly.
	for i := range specs {
		for j := range specs {
			if i != j {
				netw.SetLinkRule(specs[i].Name(), specs[j].Name(), faultnet.Rule{})
			}
		}
	}
	err, out := runMaster(t, "master-run2", 60*time.Second,
		"-nodes", nodesArg(specs, func(sp NodeSpec) string { return sp.AgentAddr }),
		"-scale-in", "1", "-timeout", "45s")
	if err != nil {
		t.Fatalf("master rerun after restart failed: %v\n%s", err, out)
	}
	members := parseMembers(t, out)
	if len(members) != 2 {
		t.Fatalf("rerun membership %v, want 2 members", members)
	}
	// The crashed receiver lost its resident third; everything still
	// served must carry acked bytes, and well over the surviving share
	// must be present.
	oracle.MustCheck(t, members, 0.5)

	sent := int64(0)
	for _, m := range members {
		for _, sp := range specs {
			if sp.Name() == m {
				c, err := MigrationCounters(sp.DebugAddr)
				if err != nil {
					t.Fatalf("counters %s: %v", m, err)
				}
				sent += c.PairsSent + c.PairsImported
			}
		}
	}
	if sent == 0 {
		t.Fatalf("no migration traffic recorded on surviving members")
	}
}

func scenarioMasterRestartResume(t *T) {
	specs := t.NewNodeSpecs(3)
	netw := faultnet.New(t.Seed)
	peers := agentProxies(t, netw, specs)
	for i := range specs {
		for j := range specs {
			if i != j {
				netw.SetLinkRule(specs[i].Name(), specs[j].Name(), faultnet.Rule{ThrottleBPS: 128 << 10})
			}
		}
	}
	for i, sp := range specs {
		t.StartNode(fmt.Sprintf("node%c", 'A'+i), sp, peers[i], "-memory-mb", "64")
	}

	oracle := NewOracle(t.Seed)
	cl := newClusterClient(t, membersOf(specs))
	if err := oracle.Populate(cl, "mres", 4000, 64, 512); err != nil {
		t.Fatalf("populate: %v", err)
	}

	master := t.Spawn("master-run1", t.Bins.Master,
		"-nodes", nodesArg(specs, func(sp NodeSpec) string { return sp.AgentAddr }),
		"-scale-in", "1", "-timeout", "30s")

	if !PollUntil(20*time.Second, func() bool {
		for _, sp := range specs {
			if c, err := MigrationCounters(sp.DebugAddr); err == nil && c.PairsSent > 0 {
				return true
			}
		}
		return false
	}) {
		t.Fatalf("no pairs sent within 20s of the scale-in\nmaster:\n%s", master.Output())
	}
	t.Logf("killing master mid-migration")
	master.Kill()

	// Every node survives the master's death, and the old membership
	// still serves the full acked set: the data phase copies, it does not
	// delete, and the membership flip never ran.
	for _, sp := range specs {
		if err := WaitMemcachedReady(sp.Addr, 5*time.Second); err != nil {
			t.Fatalf("node %s after master crash: %v", sp.Name(), err)
		}
	}
	oracle.MustCheck(t, membersOf(specs), 0.99)

	for i := range specs {
		for j := range specs {
			if i != j {
				netw.SetLinkRule(specs[i].Name(), specs[j].Name(), faultnet.Rule{})
			}
		}
	}
	err, out := runMaster(t, "master-run2", 60*time.Second,
		"-nodes", nodesArg(specs, func(sp NodeSpec) string { return sp.AgentAddr }),
		"-scale-in", "1", "-timeout", "45s")
	if err != nil {
		t.Fatalf("fresh master could not complete the interrupted scale-in: %v\n%s", err, out)
	}
	members := parseMembers(t, out)
	if len(members) != 2 {
		t.Fatalf("membership after resume %v, want 2 members", members)
	}
	oracle.MustCheck(t, members, 0.6)
}

func scenarioPartitionHeal(t *T) {
	specs := t.NewNodeSpecs(3)
	netw := faultnet.New(t.Seed)
	// Control-plane proxies: the master reaches each agent through a
	// faultnet hop on the master->node link. The data plane is direct.
	ctrl := make(map[string]string, len(specs))
	for _, sp := range specs {
		pr, err := faultnet.NewProxy(netw, "master", sp.Name(), sp.AgentAddr)
		if err != nil {
			t.Fatalf("control proxy: %v", err)
		}
		t.Cleanup(func() { _ = pr.Close() })
		ctrl[sp.Name()] = pr.Addr()
	}
	for i, sp := range specs {
		peersDirect := make(map[string]string)
		for j, other := range specs {
			if i != j {
				peersDirect[other.Name()] = other.AgentAddr
			}
		}
		t.StartNode(fmt.Sprintf("node%c", 'A'+i), sp, peersDirect, "-memory-mb", "64")
	}

	oracle := NewOracle(t.Seed)
	cl := newClusterClient(t, membersOf(specs))
	if err := oracle.Populate(cl, "part", 3000, 64, 512); err != nil {
		t.Fatalf("populate: %v", err)
	}

	cut := specs[1].Name()
	netw.Partition("master", cut)
	t.Logf("partitioned master->%s", cut)

	err, out := runMaster(t, "master-partitioned", 60*time.Second,
		"-nodes", nodesArg(specs, func(sp NodeSpec) string { return ctrl[sp.Name()] }),
		"-scale-in", "1", "-timeout", "20s")
	if err == nil {
		t.Fatalf("scale-in succeeded across a partitioned control link:\n%s", out)
	}
	t.Logf("partitioned master failed as expected: %v", err)

	// Abort safety: the aborted operation moved nothing and the full
	// membership still serves the complete acked set.
	for _, sp := range specs {
		c, err := MigrationCounters(sp.DebugAddr)
		if err != nil {
			t.Fatalf("counters %s: %v", sp.Name(), err)
		}
		if c.BytesMoved != 0 {
			t.Fatalf("aborted scale-in moved %d bytes via %s", c.BytesMoved, sp.Name())
		}
	}
	oracle.MustCheck(t, membersOf(specs), 0.99)

	netw.Heal("master", cut)
	t.Logf("healed master->%s", cut)
	err, out = runMaster(t, "master-healed", 90*time.Second,
		"-nodes", nodesArg(specs, func(sp NodeSpec) string { return ctrl[sp.Name()] }),
		"-scale-in", "1", "-timeout", "60s")
	if err != nil {
		t.Fatalf("scale-in after heal failed: %v\n%s", err, out)
	}
	members := parseMembers(t, out)
	if len(members) != 2 {
		t.Fatalf("membership after heal %v, want 2 members", members)
	}
	oracle.MustCheck(t, members, 0.6)
}

func scenarioClockSkew(t *T) {
	specs := t.NewNodeSpecs(3)
	skews := []string{"-90m", "0s", "90m"}
	for i, sp := range specs {
		peersDirect := make(map[string]string)
		for j, other := range specs {
			if i != j {
				peersDirect[other.Name()] = other.AgentAddr
			}
		}
		t.StartNode(fmt.Sprintf("node%c", 'A'+i), sp, peersDirect,
			"-memory-mb", "64", "-clock-skew", skews[i])
	}

	// A relative exptime counts on the node's own clock, so an hour-long
	// item lives on every node whatever its skew.
	for _, sp := range specs {
		key := "skew-ttl-" + sp.Name()
		if reply, err := RawSet(sp.Addr, key, []byte("ttl"), 3600); err != nil || reply != "STORED" {
			t.Fatalf("set with exptime 3600 on %s: reply=%q err=%v", sp.Name(), reply, err)
		}
		if _, hit, err := RawGet(sp.Addr, key); err != nil || !hit {
			t.Fatalf("%s lost an item stored with exptime 3600: hit=%v err=%v", sp.Name(), hit, err)
		}
	}

	oracle := NewOracle(t.Seed)
	cl := newClusterClient(t, membersOf(specs))
	if err := oracle.Populate(cl, "skew", 3000, 64, 512); err != nil {
		t.Fatalf("populate: %v", err)
	}

	// III-C scores nodes by MRU recency reported in each node's own
	// wall clock. The node running 90 minutes slow reports every access
	// as stale, so it must be scored coldest and retired — a
	// deterministic, observable consequence of clock skew.
	err, out := runMaster(t, "master-scale-in", 60*time.Second,
		"-nodes", nodesArg(specs, func(sp NodeSpec) string { return sp.AgentAddr }),
		"-scale-in", "1", "-timeout", "45s")
	if err != nil {
		t.Fatalf("scale-in across skewed clocks failed: %v\n%s", err, out)
	}
	wantRetired := "retired=" + specs[0].Name()
	if !strings.Contains(out, wantRetired) {
		t.Fatalf("master retired the wrong node: want %q in\n%s", wantRetired, out)
	}
	t.Logf("slow-clock node %s scored coldest and was retired", specs[0].Name())

	members := parseMembers(t, out)
	if len(members) != 2 {
		t.Fatalf("membership %v, want 2 members", members)
	}
	oracle.MustCheck(t, members, 0.5)
}

func scenarioLargePayloadSweep(t *T) {
	specs := t.NewNodeSpecs(2)
	for i, sp := range specs {
		peersDirect := make(map[string]string)
		for j, other := range specs {
			if i != j {
				peersDirect[other.Name()] = other.AgentAddr
			}
		}
		t.StartNode(fmt.Sprintf("node%c", 'A'+i), sp, peersDirect, "-memory-mb", "128")
	}
	addr := specs[0].Addr

	// The slab ceiling: one page minus the chunk header and the key. Stored
	// with exptime 0, the item carries no expiry tail.
	const key = "sweep-payload"
	maxVal := cache.PageSize - cache.ItemOverhead - len(key)
	sizes := []int{1, 1 << 10, 16 << 10, 100_000, 512 << 10, maxVal}
	rng := rand.New(rand.NewSource(t.Seed))
	for _, size := range sizes {
		val := make([]byte, size)
		rng.Read(val)
		if reply, err := RawSet(addr, key, val, 0); err != nil || reply != "STORED" {
			t.Fatalf("set %dB: reply=%q err=%v", size, reply, err)
		}
		got, hit, err := RawGet(addr, key)
		if err != nil || !hit {
			t.Fatalf("get %dB: hit=%v err=%v", size, hit, err)
		}
		if !bytes.Equal(got, val) {
			t.Fatalf("%dB payload corrupted in round trip (got %dB)", size, len(got))
		}
		t.Logf("%d byte payload round-tripped", size)
	}

	// One past the ceiling: the store rejects it with SERVER_ERROR and
	// the connection keeps serving.
	conn, err := net.DialTimeout("tcp", addr, time.Second)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	_ = conn.SetDeadline(time.Now().Add(10 * time.Second))
	over := make([]byte, maxVal+1)
	if _, err := fmt.Fprintf(conn, "set %s 0 0 %d\r\n", key, len(over)); err != nil {
		t.Fatalf("oversized set: %v", err)
	}
	if _, err := conn.Write(append(over, '\r', '\n')); err != nil {
		t.Fatalf("oversized set body: %v", err)
	}
	br := bufio.NewReader(conn)
	line, err := br.ReadString('\n')
	if err != nil || !strings.HasPrefix(line, "SERVER_ERROR") {
		t.Fatalf("oversized set: want SERVER_ERROR, got %q err=%v", line, err)
	}
	if _, err := conn.Write([]byte("version\r\n")); err != nil {
		t.Fatalf("post-error write: %v", err)
	}
	if line, err = br.ReadString('\n'); err != nil || !strings.HasPrefix(line, "VERSION") {
		t.Fatalf("connection dead after oversized set: %q err=%v", line, err)
	}
	t.Logf("oversized value rejected cleanly, connection kept serving")

	// Large values must also survive migration.
	oracle := NewOracle(t.Seed)
	cl := newClusterClient(t, membersOf(specs))
	if err := oracle.Populate(cl, "big", 40, 256<<10, 256<<10+1); err != nil {
		t.Fatalf("populate large: %v", err)
	}
	err2, out := runMaster(t, "master-scale-in", 90*time.Second,
		"-nodes", nodesArg(specs, func(sp NodeSpec) string { return sp.AgentAddr }),
		"-scale-in", "1", "-timeout", "60s")
	if err2 != nil {
		t.Fatalf("scale-in with large values failed: %v\n%s", err2, out)
	}
	members := parseMembers(t, out)
	if len(members) != 1 {
		t.Fatalf("membership %v, want 1 member", members)
	}
	oracle.MustCheck(t, members, 0.9)
}

func scenarioWarmRestartSnapshot(t *T) {
	specs := t.NewNodeSpecs(2)
	warm, cold := specs[0], specs[1]
	snapDir := t.WorkDir + "/snap-warm"

	const (
		datasetKeys = 20_000
		zipfS       = 1.1
		loadSeed    = 42
	)
	node := t.StartNode("nodeWarm", warm, nil,
		"-memory-mb", "64", "-snapshot-dir", snapDir, "-drain", "3s")

	// A real loadgen process populates the node exactly as the paper's
	// web tier would: Zipf multi-gets with DB write-back on miss.
	lg := t.Spawn("loadgen", t.Bins.Loadgen,
		"-members", warm.Addr, "-rate", "400", "-duration", "6s",
		"-keys", fmt.Sprint(datasetKeys), "-kv", "10",
		"-zipf", fmt.Sprint(zipfS), "-seed", fmt.Sprint(loadSeed),
		"-db-capacity", "50000", "-db-base", "100us")
	if err, ok := lg.Wait(60 * time.Second); !ok || err != nil {
		t.Fatalf("loadgen: exited=%v err=%v\n%s", ok, err, lg.Output())
	}

	stats, err := Stats(warm.Addr)
	if err != nil {
		t.Fatalf("stats before snapshot: %v", err)
	}
	t.Logf("pre-shutdown curr_items=%s", stats["curr_items"])

	// The tentpole counters must be live on the debug port.
	vars, err := FetchExpvars(warm.DebugAddr)
	if err != nil {
		t.Fatalf("expvars: %v", err)
	}
	for _, name := range []string{"elmem_migration", "elmem_gc"} {
		if _, ok := vars[name]; !ok {
			t.Fatalf("expvar %s not published on %s", name, warm.DebugAddr)
		}
	}

	t.Logf("SIGTERM -> drain -> snapshot")
	if err := node.Signal(syscall.SIGTERM); err != nil {
		t.Fatalf("sigterm: %v", err)
	}
	if err, ok := node.Wait(20 * time.Second); !ok || err != nil {
		t.Fatalf("node shutdown: exited=%v err=%v\n%s", ok, err, node.Output())
	}
	if _, err := Stats(warm.Addr); err == nil {
		t.Fatalf("node still serving after SIGTERM exit")
	}

	t.Logf("restarting from snapshot")
	node = t.StartNode("nodeWarm-restarted", warm, nil,
		"-memory-mb", "64", "-snapshot-dir", snapDir, "-drain", "3s")
	if !strings.Contains(node.Output(), "warm restart: restored") {
		// The restore log line may land shortly after the port opens.
		if !PollUntil(3*time.Second, func() bool {
			return strings.Contains(node.Output(), "warm restart: restored")
		}) {
			t.Fatalf("restarted node did not log a snapshot restore:\n%s", node.Output())
		}
	}

	// Cold-start control: an identically configured node that never saw
	// the workload.
	t.StartNode("nodeCold", cold, nil, "-memory-mb", "64")

	// Probe hit-rate with fresh draws from the same Zipf popularity the
	// loadgen used, validating hit bytes against the loadgen's dataset —
	// the acked oracle for write-back traffic.
	dataset, err := store.NewDataset(datasetKeys, store.WithSizeBounds(1, 1024))
	if err != nil {
		t.Fatalf("dataset: %v", err)
	}
	zipf, err := workload.NewZipf(rand.New(rand.NewSource(loadSeed)), zipfS, datasetKeys)
	if err != nil {
		t.Fatalf("zipf: %v", err)
	}
	const probes = 2000
	hitRate := func(addr string) float64 {
		hits := 0
		for i := 0; i < probes; i++ {
			key := workload.KeyName(zipf.Next())
			got, hit, err := RawGet(addr, key)
			if err != nil {
				t.Fatalf("probe get %s on %s: %v", key, addr, err)
			}
			if !hit {
				continue
			}
			hits++
			want, err := dataset.Value(key)
			if err != nil {
				t.Fatalf("dataset value %s: %v", key, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("warm-restarted value for %s does not match the dataset oracle", key)
			}
		}
		return float64(hits) / probes
	}
	warmRate := hitRate(warm.Addr)
	coldRate := hitRate(cold.Addr)
	t.Logf("EXPERIMENT warm_restart_hitrate warm=%.3f cold=%.3f ratio=%s",
		warmRate, coldRate, ratioString(warmRate, coldRate))

	if warmRate < 0.2 {
		t.Fatalf("warm hit-rate %.3f too low for a restored MRU set", warmRate)
	}
	if warmRate < 2*coldRate {
		t.Fatalf("warm hit-rate %.3f not >= 2x cold control %.3f", warmRate, coldRate)
	}
}

func ratioString(warm, cold float64) string {
	if cold == 0 {
		return "inf"
	}
	return fmt.Sprintf("%.1fx", warm/cold)
}
