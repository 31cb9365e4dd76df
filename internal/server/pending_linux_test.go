package server

import (
	"io"
	"net"
	"syscall"
	"testing"
	"time"
)

// TestInputPending: the peek reports bytes waiting in the receive queue,
// reports none without blocking when the queue is empty, and consumes
// nothing — the byte it saw is still there to read.
func TestInputPending(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	client, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	conn, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	if inputPending(conn) {
		t.Fatal("an empty receive queue reported input")
	}
	if _, err := client.Write([]byte("g")); err != nil {
		t.Fatal(err)
	}
	// Park until the byte arrives, without consuming it: a raw read whose
	// callback peeks and asks to wait while the queue is empty.
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	rc, err := conn.(syscall.Conn).SyscallConn()
	if err != nil {
		t.Fatal(err)
	}
	err = rc.Read(func(fd uintptr) bool {
		var b [1]byte
		_, _, err := syscall.Recvfrom(int(fd), b[:], syscall.MSG_PEEK|syscall.MSG_DONTWAIT)
		return err != syscall.EAGAIN
	})
	if err != nil {
		t.Fatalf("waiting for the written byte: %v", err)
	}
	if !inputPending(conn) {
		t.Fatal("a byte waiting in the queue did not show as pending")
	}
	b := make([]byte, 1)
	if _, err := io.ReadFull(conn, b); err != nil || b[0] != 'g' {
		t.Fatalf("read after the peek = %q, %v", b, err)
	}
	if inputPending(conn) {
		t.Fatal("a drained receive queue reported input")
	}
}
