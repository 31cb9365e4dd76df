//go:build !linux || race

package cache

// discardPage is a no-op where the arena is a heap slice (race builds and
// platforms without the mapping) and where syscall offers no madvise: a
// released page stays resident until a class writes it again.
func discardPage([]byte) {}
