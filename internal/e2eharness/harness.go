package e2eharness

import (
	"errors"
	"fmt"
	"log"
	"math/rand"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"time"
)

// Binaries holds the paths of the freshly built elmem binaries.
type Binaries struct {
	Node    string
	Master  string
	Loadgen string
}

// BuildBinaries compiles elmem-node, elmem-master, and elmem-loadgen
// from the enclosing module into dir/bin. Building once per run (not per
// scenario) keeps the suite honest — every scenario exercises the same
// artifacts an operator would deploy.
func BuildBinaries(dir string) (Binaries, error) {
	root, err := moduleRoot()
	if err != nil {
		return Binaries{}, err
	}
	binDir := filepath.Join(dir, "bin")
	if err := os.MkdirAll(binDir, 0o755); err != nil {
		return Binaries{}, err
	}
	cmd := exec.Command("go", "build", "-o", binDir,
		"./cmd/elmem-node", "./cmd/elmem-master", "./cmd/elmem-loadgen")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return Binaries{}, fmt.Errorf("go build: %w\n%s", err, out)
	}
	return Binaries{
		Node:    filepath.Join(binDir, "elmem-node"),
		Master:  filepath.Join(binDir, "elmem-master"),
		Loadgen: filepath.Join(binDir, "elmem-loadgen"),
	}, nil
}

// moduleRoot walks up from the working directory to the enclosing go.mod.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("e2eharness: no go.mod above working directory")
		}
		dir = parent
	}
}

// FreePorts picks n distinct TCP ports from 20000 up to the kernel's
// ephemeral range, each checked free with a bind. The kernel gives no such
// port to an outgoing connection, so none is taken between the pick and
// the spawned binary's bind. The walk starts at random to spread out runs.
func FreePorts(n int) ([]int, error) {
	const minPort = 20000
	low, _ := ephemeralRange()
	span := low - minPort
	ports := make([]int, 0, n)
	for i, start := 0, rand.Intn(max(span, 1)); i < span && len(ports) < n; i++ {
		port := minPort + (start+i)%span
		if ln, err := net.Listen("tcp", fmt.Sprintf("127.0.0.1:%d", port)); err == nil {
			ln.Close()
			ports = append(ports, port)
		}
	}
	if len(ports) < n {
		return nil, fmt.Errorf("e2eharness: %d of %d free ports in [%d, %d)", len(ports), n, minPort, low)
	}
	return ports, nil
}

// ephemeralRange reads the ports the kernel assigns to outgoing
// connections and port-0 binds, or Linux's default where it cannot.
func ephemeralRange() (low, high int) {
	b, err := os.ReadFile("/proc/sys/net/ipv4/ip_local_port_range")
	if err == nil {
		_, err = fmt.Sscan(string(b), &low, &high)
	}
	if err != nil {
		return 32768, 60999
	}
	return low, high
}

// failure is the sentinel T.Fatalf panics with; the runner recovers it.
type failure struct{ msg string }

// T is the per-scenario context handed to a scenario's Run: seeded
// randomness, a scratch directory, a process registry that is torn down
// when the scenario ends, and Fatalf/Logf in the spirit of testing.T.
type T struct {
	Name    string
	Seed    int64
	WorkDir string // scenario scratch space (snapshot dirs, etc.)
	LogDir  string // captured process logs
	Bins    Binaries

	log      *log.Logger
	procs    []*Proc
	cleanups []func()
}

// Logf records a harness-side progress line into the scenario log.
func (t *T) Logf(format string, args ...any) {
	t.log.Printf(format, args...)
}

// Fatalf fails the scenario immediately.
func (t *T) Fatalf(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	t.log.Printf("FATAL: %s", msg)
	panic(failure{msg: msg})
}

// Spawn starts a supervised process whose output lands in the scenario's
// log directory; it is SIGKILLed at scenario teardown if still running.
func (t *T) Spawn(name, bin string, args ...string) *Proc {
	t.Logf("spawn %s: %s %v", name, filepath.Base(bin), args)
	p, err := Spawn(t.LogDir, name, bin, args...)
	if err != nil {
		t.Fatalf("spawn %s: %v", name, err)
	}
	t.procs = append(t.procs, p)
	return p
}

// Cleanup registers fn to run at scenario teardown, after processes are
// killed, in reverse registration order.
func (t *T) Cleanup(fn func()) {
	t.cleanups = append(t.cleanups, fn)
}

// teardown reaps every process and runs cleanups.
func (t *T) teardown() {
	for _, p := range t.procs {
		if !p.Exited() {
			p.Kill()
		}
	}
	for i := len(t.cleanups) - 1; i >= 0; i-- {
		t.cleanups[i]()
	}
}

// NodeSpec is one elmem-node's address assignment. The node name is its
// cache address — the convention the client ring and the migration hash
// split both rely on.
type NodeSpec struct {
	Addr      string // memcached port; also the node name
	AgentAddr string
	DebugAddr string
}

// Name returns the node's name under the name==address convention.
func (n NodeSpec) Name() string { return n.Addr }

// NewNodeSpecs allocates address triples for n nodes.
func (t *T) NewNodeSpecs(n int) []NodeSpec {
	ports, err := FreePorts(3 * n)
	if err != nil {
		t.Fatalf("allocate ports: %v", err)
	}
	specs := make([]NodeSpec, n)
	for i := range specs {
		specs[i] = NodeSpec{
			Addr:      fmt.Sprintf("127.0.0.1:%d", ports[3*i]),
			AgentAddr: fmt.Sprintf("127.0.0.1:%d", ports[3*i+1]),
			DebugAddr: fmt.Sprintf("127.0.0.1:%d", ports[3*i+2]),
		}
	}
	return specs
}

// StartNode spawns an elmem-node for spec and waits until it serves.
// peers maps peer node names to the agent addresses this node should
// dial (harness proxies go here); extra appends raw flags.
func (t *T) StartNode(procName string, spec NodeSpec, peers map[string]string, extra ...string) *Proc {
	args := []string{
		"-addr", spec.Addr,
		"-agent-addr", spec.AgentAddr,
		"-debug-addr", spec.DebugAddr,
		"-crawl", "1s",
	}
	if len(peers) > 0 {
		var entries []string
		for name, addr := range peers {
			entries = append(entries, name+"="+addr)
		}
		args = append(args, "-peers", joinComma(entries))
	}
	args = append(args, extra...)
	p := t.Spawn(procName, t.Bins.Node, args...)
	if err := WaitMemcachedReady(spec.Addr, 10*time.Second); err != nil {
		t.Fatalf("%s: %v\n--- log ---\n%s", procName, err, p.Output())
	}
	return p
}

func joinComma(parts []string) string {
	out := ""
	for i, p := range parts {
		if i > 0 {
			out += ","
		}
		out += p
	}
	return out
}
