package agentrpc

// BenchmarkMigrateDataPlane measures the streaming data plane: one full
// SendData push of the sender's hot set over the framed stream with the
// default in-flight window, as migrated pairs per second at rtt=0 and
// rtt=5ms. The RTT is injected by a userspace proxy that delays each
// direction by rtt/2, modeling propagation (not bandwidth): pipelined
// batches overlap the latency.
//
// Run via `make bench`; EXPERIMENTS.md records the numbers.

import (
	"context"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/agent"
	"repro/internal/cache"
)

// delayProxy relays TCP to target, delaying every chunk in both
// directions by delay (one-way propagation; RTT = 2×delay). Bandwidth is
// effectively unconstrained: a reader goroutine timestamps chunks into a
// deep queue and a writer goroutine releases them when due, so many
// chunks can be "on the wire" at once.
func delayProxy(tb testing.TB, target string, delay time.Duration) string {
	tb.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { _ = ln.Close() })
	type chunk struct {
		data []byte
		due  time.Time
	}
	pipe := func(dst, src net.Conn) {
		defer dst.Close()
		defer src.Close()
		ch := make(chan chunk, 4096)
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := range ch {
				if d := time.Until(c.due); d > 0 {
					time.Sleep(d)
				}
				if _, err := dst.Write(c.data); err != nil {
					return
				}
			}
		}()
		buf := make([]byte, 32<<10)
		for {
			n, err := src.Read(buf)
			if n > 0 {
				data := make([]byte, n)
				copy(data, buf[:n])
				ch <- chunk{data: data, due: time.Now().Add(delay)}
			}
			if err != nil {
				break
			}
		}
		close(ch)
		wg.Wait()
	}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			up, err := net.Dial("tcp", target)
			if err != nil {
				conn.Close()
				continue
			}
			go pipe(up, conn)
			go pipe(conn, up)
		}
	}()
	return ln.Addr().String()
}

func BenchmarkMigrateDataPlane(b *testing.B) {
	const (
		pairs     = 2048
		valLen    = 256
		batchSize = 64 // 32 batches per push
	)
	for _, rtt := range []time.Duration{0, 5 * time.Millisecond} {
		b.Run(fmt.Sprintf("rtt=%s", rtt), func(b *testing.B) {
			clk := newTestClock()
			recvCache, err := cache.New(8*cache.PageSize, cache.WithClock(clk.Now))
			if err != nil {
				b.Fatal(err)
			}
			recv, err := agent.New("recv", recvCache, NewAddressBook())
			if err != nil {
				b.Fatal(err)
			}
			srv, err := Serve("127.0.0.1:0", recv, nil)
			if err != nil {
				b.Fatal(err)
			}
			defer srv.Close()

			cl := NewClient("recv", delayProxy(b, srv.Addr(), rtt/2))
			defer cl.Close()
			sendCache, err := cache.New(8*cache.PageSize, cache.WithClock(clk.Now))
			if err != nil {
				b.Fatal(err)
			}
			sender, err := agent.New("sender", sendCache, clientTransport{cl},
				agent.WithTransferBatchSize(batchSize))
			if err != nil {
				b.Fatal(err)
			}
			populateSized(b, sender, pairs, valLen)

			ctx := context.Background()
			total := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Touch one fresh key so the plan fingerprint changes:
				// each iteration is a new epoch, never an ack-resume of
				// the previous push.
				b.StopTimer()
				if err := sender.Cache().Set(fmt.Sprintf("bust-%09d", i), []byte("x")); err != nil {
					b.Fatal(err)
				}
				pickFor(b, sender)
				b.StartTimer()
				stats, err := sender.SendData(ctx, "recv", takesFor(sender), []string{"recv"})
				if err != nil {
					b.Fatal(err)
				}
				if stats.Pairs < pairs {
					b.Fatalf("push covered %d pairs, want ≥ %d", stats.Pairs, pairs)
				}
				if stats.Resumed != 0 {
					b.Fatalf("push resumed %d pairs; the fingerprint bust failed", stats.Resumed)
				}
				total += stats.Pairs
			}
			b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "pairs/s")
		})
	}
}
