package server

import (
	"bufio"
	"fmt"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/hotkey"
)

// BenchmarkServerThroughput measures end-to-end gets over loopback TCP:
// each parallel goroutine opens its own connection and issues single-key
// `get` requests, reading each response through the END terminator. The
// striped engine should let concurrent connections progress without
// serializing on one cache lock.
func BenchmarkServerThroughput(b *testing.B) {
	const nkeys = 1024
	for _, cfg := range []struct {
		name   string
		shards int
	}{
		{"single-lock", 1},
		{"sharded", 0},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			opts := []cache.Option{}
			if cfg.shards > 0 {
				opts = append(opts, cache.WithShards(cfg.shards))
			}
			c, err := cache.New(64*cache.PageSize, opts...)
			if err != nil {
				b.Fatal(err)
			}
			preloadBench(b, c, nkeys)
			s, err := Listen("127.0.0.1:0", c)
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()

			var seq atomic.Uint64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				conn, err := net.Dial("tcp", s.Addr())
				if err != nil {
					b.Error(err)
					return
				}
				defer conn.Close()
				r := bufio.NewReader(conn)
				i := int(seq.Add(1)) * 997
				for pb.Next() {
					if _, err := fmt.Fprintf(conn, "get %s\r\n", benchServerKey(i%nkeys)); err != nil {
						b.Error(err)
						return
					}
					if err := readUntilEnd(r); err != nil {
						b.Error(err)
						return
					}
					i++
				}
			})
		})
	}
}

// BenchmarkServerMultiGet measures a 16-key `get` request per round trip —
// the path the server serves through one cache.GetFunc walk.
func BenchmarkServerMultiGet(b *testing.B) {
	const (
		nkeys = 1024
		batch = 16
	)
	c, err := cache.New(64 * cache.PageSize)
	if err != nil {
		b.Fatal(err)
	}
	preloadBench(b, c, nkeys)
	s, err := Listen("127.0.0.1:0", c)
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()

	var seq atomic.Uint64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		conn, err := net.Dial("tcp", s.Addr())
		if err != nil {
			b.Error(err)
			return
		}
		defer conn.Close()
		r := bufio.NewReader(conn)
		i := int(seq.Add(1)) * 997
		keys := make([]string, batch)
		for pb.Next() {
			for j := 0; j < batch; j++ {
				keys[j] = benchServerKey((i + j) % nkeys)
			}
			if _, err := fmt.Fprintf(conn, "get %s\r\n", strings.Join(keys, " ")); err != nil {
				b.Error(err)
				return
			}
			if err := readUntilEnd(r); err != nil {
				b.Error(err)
				return
			}
			i += batch
		}
	})
}

// BenchmarkServerPipelined measures single-key gets over one connection at
// pipeline depths 1, 8, and 64. Depth 1 is the request-at-a-time baseline:
// one write syscall, one read syscall, and one response flush per request.
// At higher depths the client batches `depth` requests into a single write
// and the server's flush coalescing batches all `depth` responses into
// (ideally) a single flush, so the syscall cost amortizes. ns/op is per
// request, not per batch.
func BenchmarkServerPipelined(b *testing.B) {
	const nkeys = 1024
	c, err := cache.New(64 * cache.PageSize)
	if err != nil {
		b.Fatal(err)
	}
	preloadBench(b, c, nkeys)
	s, err := Listen("127.0.0.1:0", c)
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()

	for _, depth := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("depth-%d", depth), func(b *testing.B) {
			conn, err := net.Dial("tcp", s.Addr())
			if err != nil {
				b.Fatal(err)
			}
			defer conn.Close()
			r := bufio.NewReader(conn)
			var batch []byte
			b.ResetTimer()
			for i := 0; i < b.N; i += depth {
				n := depth
				if rem := b.N - i; rem < n {
					n = rem
				}
				batch = batch[:0]
				for j := 0; j < n; j++ {
					batch = append(batch, "get "...)
					batch = append(batch, benchServerKey((i+j)%nkeys)...)
					batch = append(batch, "\r\n"...)
				}
				if _, err := conn.Write(batch); err != nil {
					b.Fatal(err)
				}
				for j := 0; j < n; j++ {
					if err := readUntilEnd(r); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkHotPath measures the in-process parse → handle → write pipeline
// with no sockets, isolating per-request CPU and allocation cost. Run with
// -benchmem: the headline numbers are B/op and allocs/op, which must stay 0
// in steady state (TestHotPathAllocs enforces this in `make check`).
func BenchmarkHotPath(b *testing.B) {
	for _, tc := range []struct {
		name    string
		payload string
	}{
		{"get", "get hot\r\n"},
		{"set", "set hot 11 0 5\r\nhello\r\n"},
		{"multi-get-4", "get hot hot hot hot\r\n"},
	} {
		b.Run(tc.name, func(b *testing.B) {
			h := newHotPathHarness(b)
			h.serve(b, []byte("set hot 11 0 5\r\nhello\r\n"))
			payload := []byte(tc.payload)
			h.serve(b, payload)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h.serve(b, payload)
			}
		})
		// The same payload with hot-key detection enabled: the delta
		// against the plain run is the sketch sampling cost, which must
		// stay under 10 ns/op and 0 allocs/op.
		b.Run(tc.name+"-sketch", func(b *testing.B) {
			h := newHotPathHarness(b)
			h.s.SetHotKeys(hotkey.New("bench-node", h.s.cache, nil, hotkey.Config{}))
			h.serve(b, []byte("set hot 11 0 5\r\nhello\r\n"))
			payload := []byte(tc.payload)
			for i := 0; i < 64; i++ {
				h.serve(b, payload)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h.serve(b, payload)
			}
		})
	}
}

func benchServerKey(i int) string { return fmt.Sprintf("bench-key-%05d", i) }

// readUntilEnd consumes response lines through the END terminator. Values
// in these benchmarks never contain "END", so a line match is safe.
func readUntilEnd(r *bufio.Reader) error {
	for {
		line, err := r.ReadString('\n')
		if err != nil {
			return err
		}
		if strings.HasPrefix(line, "END") {
			return nil
		}
	}
}

// preloadBench stores nkeys 64-byte values under benchServerKey names
// through SetBytes, the server's own write path.
func preloadBench(b *testing.B, c *cache.Cache, nkeys int) {
	b.Helper()
	val := make([]byte, 64)
	for i := 0; i < nkeys; i++ {
		if err := c.SetBytes([]byte(benchServerKey(i)), val, 0, time.Time{}); err != nil {
			b.Fatal(err)
		}
	}
}
