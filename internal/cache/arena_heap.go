//go:build !unix || aix || race

package cache

// arenaOffHeap reports that page memory lives outside the Go heap.
const arenaOffHeap = false

// mapArena allocates page memory on the Go heap where the mapping cannot be
// used: platforms without syscall.Mmap (Windows) or MAP_NORESERVE (AIX),
// and race builds — the race detector only checks heap and data-segment
// addresses, so a mapped arena would silently escape `make race`.
func mapArena(n int) (*arenaMem, error) { return &arenaMem{b: make([]byte, n)}, nil }
