package memproto

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

func TestParseLeaseGet(t *testing.T) {
	p := NewParser(strings.NewReader("lget foo\r\nlget a b\r\nlget\r\n"))
	req, err := p.Next()
	if err != nil {
		t.Fatal(err)
	}
	if req.Command != CmdLeaseGet || len(req.Keys) != 1 || string(req.Keys[0]) != "foo" {
		t.Fatalf("lget parsed as %+v", req)
	}
	if _, err := p.Next(); err == nil || !IsRecoverable(err) {
		t.Fatalf("multi-key lget: err=%v", err)
	}
	if _, err := p.Next(); err == nil || !IsRecoverable(err) {
		t.Fatalf("bare lget: err=%v", err)
	}
}

func TestParseLeaseSet(t *testing.T) {
	p := NewParser(strings.NewReader("lset foo 7 0 5 42\r\nhello\r\nlset foo 7 0 5 nope\r\nhello\r\nget foo\r\n"))
	req, err := p.Next()
	if err != nil {
		t.Fatal(err)
	}
	if req.Command != CmdLeaseSet || string(req.Keys[0]) != "foo" ||
		req.Flags != 7 || req.CAS != 42 || string(req.Value) != "hello" {
		t.Fatalf("lset parsed as %+v", req)
	}
	// Bad token: recoverable, body skipped, stream resyncs on the get.
	if _, err := p.Next(); err == nil || !IsRecoverable(err) {
		t.Fatalf("bad token lset: err=%v", err)
	}
	req, err = p.Next()
	if err != nil || req.Command != CmdGet {
		t.Fatalf("resync after bad lset failed: req=%+v err=%v", req, err)
	}
}

func TestLeaseReplyRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	rw := NewReplyWriter(&buf)
	if err := rw.Lease(99); err != nil {
		t.Fatal(err)
	}
	if err := rw.End(); err != nil {
		t.Fatal(err)
	}
	if err := rw.Value([]byte("k"), 3, []byte("vvv")); err != nil {
		t.Fatal(err)
	}
	if err := rw.End(); err != nil {
		t.Fatal(err)
	}
	if err := rw.Flush(); err != nil {
		t.Fatal(err)
	}

	rr := NewReplyReader(&buf)
	val, flags, hit, token, err := rr.ReadLeaseGet()
	if err != nil || hit || token != 99 || val != nil {
		t.Fatalf("lease miss: val=%q flags=%d hit=%v token=%d err=%v", val, flags, hit, token, err)
	}
	val, flags, hit, token, err = rr.ReadLeaseGet()
	if err != nil || !hit || token != 0 || string(val) != "vvv" || flags != 3 {
		t.Fatalf("lease hit: val=%q flags=%d hit=%v token=%d err=%v", val, flags, hit, token, err)
	}
}

func TestLeaseReplyError(t *testing.T) {
	rr := NewReplyReader(strings.NewReader("SERVER_ERROR out of memory\r\n"))
	_, _, _, _, err := rr.ReadLeaseGet()
	if !errors.Is(err, ErrServer) {
		t.Fatalf("err=%v, want ErrServer", err)
	}
}

func TestFormatLease(t *testing.T) {
	if got := string(AppendLeaseGet(nil, "foo")); got != "lget foo\r\n" {
		t.Fatalf("AppendLeaseGet = %q", got)
	}
	got := string(AppendLeaseSet(nil, "foo", 7, 30, []byte("hi"), 42, false))
	if got != "lset foo 7 30 2 42\r\nhi\r\n" {
		t.Fatalf("AppendLeaseSet = %q", got)
	}
	got = string(AppendLeaseSet(nil, "foo", 0, 0, nil, 1, true))
	if got != "lset foo 0 0 0 1 noreply\r\n\r\n" {
		t.Fatalf("AppendLeaseSet noreply = %q", got)
	}
}
