//go:build linux && !race

package cache

import "syscall"

// discardPage hands a released page's memory back to the kernel: the
// mapping stays, and the next write faults in a zeroed page.
func discardPage(b []byte) { _ = syscall.Madvise(b, syscall.MADV_DONTNEED) }
