package server

import (
	"net"
	"syscall"
)

// inputPending reports whether request bytes already sit in conn's receive
// queue, without waiting for any: a peek that does not block and consumes
// nothing.
func inputPending(conn net.Conn) bool {
	sc, ok := conn.(syscall.Conn)
	if !ok {
		return false
	}
	rc, err := sc.SyscallConn()
	if err != nil {
		return false
	}
	var b [1]byte
	pending := false
	_ = rc.Read(func(fd uintptr) bool {
		n, _, err := syscall.Recvfrom(int(fd), b[:], syscall.MSG_PEEK|syscall.MSG_DONTWAIT)
		pending = err == nil && n > 0
		return true // answered either way: never wait for readiness
	})
	return pending
}
