//go:build !linux

package server

import "net"

// inputPending cannot peek at the receive queue here: a draining
// connection closes at its first drain boundary.
func inputPending(net.Conn) bool { return false }
