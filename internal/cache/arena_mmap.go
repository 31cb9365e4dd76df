//go:build unix && !aix && !race

package cache

import (
	"fmt"
	"runtime"
	"syscall"
)

// arenaOffHeap reports that page memory lives outside the Go heap.
const arenaOffHeap = true

// mapArena reserves n bytes of page memory as one anonymous private
// mapping. MAP_NORESERVE makes the reservation address space only: the
// kernel backs a page on first write, so RSS follows the chunks the slabs
// have written, not the budget. The finalizer unmaps it once the owning
// Cache is unreachable (the lifetime rule in arena.go).
func mapArena(n int) (*arenaMem, error) {
	b, err := syscall.Mmap(-1, 0, n, syscall.PROT_READ|syscall.PROT_WRITE,
		syscall.MAP_PRIVATE|syscall.MAP_ANON|syscall.MAP_NORESERVE)
	if err != nil {
		return nil, fmt.Errorf("cache: map %d-byte arena: %w", n, err)
	}
	a := &arenaMem{b: b}
	liveArenas.Add(1)
	runtime.SetFinalizer(a, func(a *arenaMem) {
		_ = syscall.Munmap(a.b)
		liveArenas.Add(-1)
	})
	return a, nil
}
