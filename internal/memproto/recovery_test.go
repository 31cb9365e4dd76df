package memproto

import (
	"errors"
	"io"
	"strings"
	"testing"
)

// The recovery contract: after a Next error for which IsRecoverable is
// true, the stream is positioned at the next request line, so a server can
// answer CLIENT_ERROR and keep serving — real memcached's resync behavior.

func TestRecoverAfterUnknownCommand(t *testing.T) {
	// "namespace" is not a verb: tenants are named by key prefix only.
	for _, line := range []string{"bogus nonsense", "namespace acme"} {
		p := NewParser(strings.NewReader(line + "\r\nget ok\r\n"))
		_, err := p.Next()
		if !errors.Is(err, ErrProtocol) || !strings.Contains(err.Error(), "unknown command") {
			t.Fatalf("%q: err = %v, want unknown-command ErrProtocol", line, err)
		}
		if !IsRecoverable(err) {
			t.Fatalf("%q: unknown command not recoverable: %v", line, err)
		}
		req, err := p.Next()
		if err != nil {
			t.Fatalf("%q: next request after bad line: %v", line, err)
		}
		if req.Command != CmdGet || string(req.Keys[0]) != "ok" {
			t.Fatalf("%q: req = %+v", line, req)
		}
	}
}

func TestRecoverAfterBadStorageLineSwallowsBody(t *testing.T) {
	// The flags field is bad but the byte count parses, so the parser must
	// skip the 5-byte data block and realign on the following get.
	p := NewParser(strings.NewReader("set k x 0 5\r\nhello\r\nget ok\r\n"))
	_, err := p.Next()
	if !IsRecoverable(err) {
		t.Fatalf("bad storage line not recoverable: %v", err)
	}
	req, err := p.Next()
	if err != nil || req.Command != CmdGet || string(req.Keys[0]) != "ok" {
		t.Fatalf("req = %+v, err = %v", req, err)
	}
}

func TestRecoverAfterOversizedKey(t *testing.T) {
	long := strings.Repeat("x", MaxKeyLen+1)
	p := NewParser(strings.NewReader("set " + long + " 0 0 2\r\nhi\r\nget ok\r\n"))
	_, err := p.Next()
	if !errors.Is(err, ErrTooLarge) || !IsRecoverable(err) {
		t.Fatalf("err = %v, want recoverable ErrTooLarge", err)
	}
	req, err := p.Next()
	if err != nil || string(req.Keys[0]) != "ok" {
		t.Fatalf("req = %+v, err = %v", req, err)
	}
}

func TestRecoverAfterOversizedLine(t *testing.T) {
	// A request line longer than maxLineLen is consumed through its newline
	// so the connection can continue.
	long := "get " + strings.Repeat("k ", maxLineLen) + "\r\n"
	p := NewParser(strings.NewReader(long + "get ok\r\n"))
	_, err := p.Next()
	if !errors.Is(err, ErrTooLarge) || !IsRecoverable(err) {
		t.Fatalf("err = %v, want recoverable ErrTooLarge", err)
	}
	req, err := p.Next()
	if err != nil || string(req.Keys[0]) != "ok" {
		t.Fatalf("req = %+v, err = %v", req, err)
	}
}

func TestTruncatedBodyIsNotRecoverable(t *testing.T) {
	// The line is valid but the body never arrives: the stream is dead and
	// must not be resumed.
	p := NewParser(strings.NewReader("set k 0 0 5\r\nhi"))
	_, err := p.Next()
	if err == nil {
		t.Fatal("truncated body accepted")
	}
	if IsRecoverable(err) {
		t.Fatalf("truncated body reported recoverable: %v", err)
	}
}

func TestBadTerminatorKeepsStreamAligned(t *testing.T) {
	// Exactly size+2 bytes were consumed, so if the client's byte count was
	// honest the parser is on the next line boundary.
	p := NewParser(strings.NewReader("set k 0 0 2\r\nhiXXget ok\r\n"))
	_, err := p.Next()
	if !IsRecoverable(err) {
		t.Fatalf("bad terminator not recoverable: %v", err)
	}
	req, err := p.Next()
	if err != nil || string(req.Keys[0]) != "ok" {
		t.Fatalf("req = %+v, err = %v", req, err)
	}
}

func TestParserResetReusesBuffers(t *testing.T) {
	p := NewParser(strings.NewReader("set a 0 0 3\r\nabc\r\n"))
	req, err := p.Next()
	if err != nil || string(req.Value) != "abc" {
		t.Fatalf("first stream: %+v, %v", req, err)
	}
	p.Reset(strings.NewReader("get b\r\n"))
	req, err = p.Next()
	if err != nil || req.Command != CmdGet || string(req.Keys[0]) != "b" {
		t.Fatalf("after Reset: %+v, %v", req, err)
	}
	if _, err := p.Next(); err != io.EOF {
		t.Fatalf("err = %v, want io.EOF", err)
	}
}
