package cache

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

// Parallel engine benchmarks. Each top-level benchmark runs a "shards=1"
// sub-benchmark (the seed's single-lock behavior, forced via WithShards(1))
// against the striped default, so the speedup of lock striping is measured
// in one invocation:
//
//	go test -run '^$' -bench 'Parallel' -cpu 8 ./internal/cache/
//
// The acceptance bar is BenchmarkCacheGetParallel/sharded at >= 3x the
// single-lock ns/op with GOMAXPROCS >= 4.

const benchKeys = 4096

func benchKey(i int) string { return fmt.Sprintf("bench-key-%05d", i) }

func newBenchCache(b *testing.B, shards int) (*Cache, []string) {
	b.Helper()
	c, err := New(256*PageSize, WithShards(shards))
	if err != nil {
		b.Fatal(err)
	}
	keys := make([]string, benchKeys)
	val := make([]byte, 64)
	for i := range keys {
		keys[i] = benchKey(i)
		if err := c.SetBytes([]byte(keys[i]), val, 0, time.Time{}); err != nil {
			b.Fatal(err)
		}
	}
	return c, keys
}

var benchShardConfigs = []struct {
	name   string
	shards int
}{
	{"single-lock", 1},
	{"sharded", 0}, // 0 = adaptive default: max(16, GOMAXPROCS) stripes
}

// BenchmarkCacheGetParallel measures concurrent read throughput: every
// goroutine issues Gets over a shared hot key set.
func BenchmarkCacheGetParallel(b *testing.B) {
	for _, cfg := range benchShardConfigs {
		b.Run(cfg.name, func(b *testing.B) {
			c, keys := newBenchCache(b, cfg.shards)
			var seq atomic.Uint64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				// Offset each goroutine so they don't march in lockstep.
				i := int(seq.Add(1)) * 997
				for pb.Next() {
					if _, err := c.Get(keys[i%benchKeys]); err != nil {
						b.Error(err)
						return
					}
					i++
				}
			})
		})
	}
}

// BenchmarkCacheMixedParallel measures a memcached-typical 90/10 read/write
// mix under contention.
func BenchmarkCacheMixedParallel(b *testing.B) {
	val := make([]byte, 64)
	for _, cfg := range benchShardConfigs {
		b.Run(cfg.name, func(b *testing.B) {
			c, keys := newBenchCache(b, cfg.shards)
			var seq atomic.Uint64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				i := int(seq.Add(1)) * 997
				for pb.Next() {
					key := keys[i%benchKeys]
					if i%10 == 0 {
						if err := c.Set(key, val); err != nil {
							b.Error(err)
							return
						}
					} else if _, err := c.Get(key); err != nil {
						b.Error(err)
						return
					}
					i++
				}
			})
		})
	}
}

// BenchmarkCacheGetMulti compares a 16-key read served by a per-key Get
// loop against one GetMultiInto call (one clock read, and no per-key
// value allocation).
func BenchmarkCacheGetMulti(b *testing.B) {
	const batch = 16
	b.Run("per-key", func(b *testing.B) {
		c, keys := newBenchCache(b, 0)
		var seq atomic.Uint64
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			i := int(seq.Add(1)) * 997
			for pb.Next() {
				for j := 0; j < batch; j++ {
					if _, err := c.Get(keys[(i+j)%benchKeys]); err != nil {
						b.Error(err)
						return
					}
				}
				i += batch
			}
		})
	})
	b.Run("batched", func(b *testing.B) {
		c, keys := newBenchCache(b, 0)
		var seq atomic.Uint64
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			i := int(seq.Add(1)) * 997
			req := make([][]byte, batch)
			var (
				items []MultiItem
				arena []byte
			)
			for pb.Next() {
				for j := 0; j < batch; j++ {
					req[j] = []byte(keys[(i+j)%benchKeys])
				}
				items, arena = c.GetMultiInto(req, items, arena)
				if len(items) != batch {
					b.Errorf("GetMultiInto returned %d results", len(items))
					return
				}
				i += batch
			}
		})
	})
}
