// Command elmem-master runs one ElMem Master action against a pool of
// elmem-node agents: score the nodes, scale in with the three-phase
// FuseCache migration, or scale out through the same three phases toward
// the new nodes.
//
// Usage:
//
//	elmem-master -nodes nodeA=127.0.0.1:12211,nodeB=127.0.0.1:12212,nodeC=127.0.0.1:12213 -score
//	elmem-master -nodes ... -scale-in 1
//	elmem-master -nodes ... -scale-out nodeD=127.0.0.1:12214
//
// -nodes maps node names to their *agent RPC* addresses. After a scaling
// action the new membership is printed; clients must be repointed at it
// (in the paper the Master pushes this to the web servers).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/agentrpc"
	"repro/internal/core"
	"repro/internal/debugsrv"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "elmem-master:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		nodes     = flag.String("nodes", "", "member agents: name=host:port,... (required)")
		score     = flag.Bool("score", false, "print III-C node scores, coldest first")
		scaleIn   = flag.Int("scale-in", 0, "retire this many coldest nodes with the ElMem migration")
		scaleOut  = flag.String("scale-out", "", "add nodes: name=host:port,... (already running)")
		timeout   = flag.Duration("timeout", 0, "abort the whole action after this long (0 = no limit)")
		debugAddr = flag.String("debug-addr", "", "serve pprof and expvar on this address (off when empty)")
	)
	flag.Parse()

	if *debugAddr != "" {
		dbg, err := debugsrv.Serve(*debugAddr)
		if err != nil {
			return err
		}
		defer func() { _ = dbg.Close() }()
		fmt.Fprintf(os.Stderr, "debug endpoints (pprof, expvar) on http://%s/debug/\n", dbg.Addr())
	}

	// Ctrl-C (or the timeout) aborts the migration before the membership
	// flip; the cluster keeps serving under its old membership.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	if *nodes == "" {
		return fmt.Errorf("-nodes is required")
	}
	book := agentrpc.NewAddressBook()
	defer book.Close()
	members, err := registerAll(book, *nodes)
	if err != nil {
		return err
	}

	master, err := core.NewMaster(agentrpc.Directory{Book: book}, members)
	if err != nil {
		return err
	}

	switch {
	case *score:
		scores, err := master.ScoreNodes(ctx)
		if err != nil {
			return err
		}
		fmt.Println("rank node score items")
		for i, s := range scores {
			fmt.Printf("%d %s %.0f %d\n", i+1, s.Node, s.Score, s.Items)
		}
		return nil

	case *scaleIn > 0:
		report, err := master.ScaleIn(ctx, *scaleIn)
		if report != nil {
			printReport(report)
		}
		return err

	case *scaleOut != "":
		added, err := registerAll(book, *scaleOut)
		if err != nil {
			return err
		}
		report, err := master.ScaleOut(ctx, added)
		if report != nil {
			printReport(report)
		}
		return err

	default:
		return fmt.Errorf("one of -score, -scale-in, or -scale-out is required")
	}
}

// registerAll parses name=addr pairs into the book and returns the names.
func registerAll(book *agentrpc.AddressBook, spec string) ([]string, error) {
	var names []string
	for _, entry := range strings.Split(spec, ",") {
		name, addr, ok := strings.Cut(strings.TrimSpace(entry), "=")
		if !ok {
			return nil, fmt.Errorf("bad node entry %q (want name=host:port)", entry)
		}
		book.Register(name, addr)
		names = append(names, name)
	}
	return names, nil
}

func printReport(report *core.ScaleReport) {
	fmt.Printf("direction=%s migrated=%d retries=%d\n", report.Direction, report.ItemsMigrated, report.Retries)
	if report.Aborted != "" {
		fmt.Printf("aborted_in_phase=%s\n", report.Aborted)
	}
	if len(report.Retiring) > 0 {
		fmt.Printf("retired=%s\n", strings.Join(report.Retiring, ","))
	}
	if len(report.Added) > 0 {
		fmt.Printf("added=%s\n", strings.Join(report.Added, ","))
	}
	fmt.Printf("members=%s\n", strings.Join(report.Members, ","))
	for _, t := range report.Timings {
		fmt.Printf("phase %s %v\n", t.Phase, t.Duration.Round(time.Microsecond))
	}
	if report.ItemsReleased > 0 {
		fmt.Printf("released=%d\n", report.ItemsReleased)
	}
	for _, d := range report.Data {
		rate := "-"
		if d.Duration > 0 {
			rate = fmt.Sprintf("%.1f MiB/s", float64(d.BytesMoved)/(1<<20)/d.Duration.Seconds())
		}
		fmt.Printf("  data %s->%s pairs=%d resumed=%d unapplied=%d moved=%dB wire=%dB %v (%s)\n",
			d.Node, d.Target, d.Pairs, d.Resumed, d.Unapplied, d.BytesMoved, d.WireBytes,
			d.Duration.Round(time.Microsecond), rate)
	}
	for _, nt := range report.NodeTimings {
		if nt.Target != "" {
			fmt.Printf("  %s %s->%s %v attempts=%d\n", nt.Phase, nt.Node, nt.Target,
				nt.Duration.Round(time.Microsecond), nt.Attempts)
		} else {
			fmt.Printf("  %s %s %v attempts=%d\n", nt.Phase, nt.Node,
				nt.Duration.Round(time.Microsecond), nt.Attempts)
		}
	}
}
