package memproto

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
	"testing/quick"
)

func parseOne(t *testing.T, input string) (*Request, error) {
	t.Helper()
	return NewParser(strings.NewReader(input)).Next()
}

func TestParseGetSingle(t *testing.T) {
	req, err := parseOne(t, "get foo\r\n")
	if err != nil {
		t.Fatal(err)
	}
	if req.Command != CmdGet || len(req.Keys) != 1 || string(req.Keys[0]) != "foo" {
		t.Fatalf("req = %+v", req)
	}
}

func TestParseGetMulti(t *testing.T) {
	req, err := parseOne(t, "get a b c\r\n")
	if err != nil {
		t.Fatal(err)
	}
	if len(req.Keys) != 3 || string(req.Keys[2]) != "c" {
		t.Fatalf("keys = %v", req.Keys)
	}
}

func TestParseGets(t *testing.T) {
	req, err := parseOne(t, "gets a\r\n")
	if err != nil {
		t.Fatal(err)
	}
	if req.Command != CmdGets {
		t.Fatalf("gets parsed as %v, want CmdGets", req.Command)
	}
}

func TestParseSet(t *testing.T) {
	req, err := parseOne(t, "set foo 7 0 5\r\nhello\r\n")
	if err != nil {
		t.Fatal(err)
	}
	if req.Command != CmdSet || string(req.Keys[0]) != "foo" {
		t.Fatalf("req = %+v", req)
	}
	if req.Flags != 7 || !bytes.Equal(req.Value, []byte("hello")) {
		t.Fatalf("flags/value = %d/%q", req.Flags, req.Value)
	}
	if req.NoReply {
		t.Fatal("unexpected noreply")
	}
}

func TestParseSetNoReply(t *testing.T) {
	req, err := parseOne(t, "set foo 0 0 2 noreply\r\nhi\r\n")
	if err != nil {
		t.Fatal(err)
	}
	if !req.NoReply {
		t.Fatal("noreply not parsed")
	}
}

func TestParseSetBinaryValue(t *testing.T) {
	value := []byte{0, 1, 2, '\r', '\n', 255}
	var input bytes.Buffer
	input.WriteString("set bin 0 0 6\r\n")
	input.Write(value)
	input.WriteString("\r\n")
	req, err := NewParser(&input).Next()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(req.Value, value) {
		t.Fatalf("value = %v, want %v", req.Value, value)
	}
}

func TestParseSetErrors(t *testing.T) {
	tests := []struct {
		name  string
		input string
	}{
		{name: "too few args", input: "set foo 0 0\r\n"},
		{name: "bad flags", input: "set foo x 0 2\r\nhi\r\n"},
		{name: "bad exptime", input: "set foo 0 x 2\r\nhi\r\n"},
		{name: "bad size", input: "set foo 0 0 x\r\nhi\r\n"},
		{name: "negative size", input: "set foo 0 0 -1\r\nhi\r\n"},
		{name: "bad trailing token", input: "set foo 0 0 2 yolo\r\nhi\r\n"},
		{name: "missing terminator", input: "set foo 0 0 2\r\nhiXX"},
		{name: "truncated value", input: "set foo 0 0 10\r\nhi\r\n"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := parseOne(t, tt.input); err == nil {
				t.Fatalf("parse(%q) succeeded, want error", tt.input)
			}
		})
	}
}

func TestParseSetValueTooLarge(t *testing.T) {
	_, err := parseOne(t, "set foo 0 0 9999999\r\n")
	if !errors.Is(err, ErrTooLarge) {
		t.Fatalf("err = %v, want ErrTooLarge", err)
	}
}

func TestParseDelete(t *testing.T) {
	req, err := parseOne(t, "delete foo\r\n")
	if err != nil {
		t.Fatal(err)
	}
	if req.Command != CmdDelete || string(req.Keys[0]) != "foo" {
		t.Fatalf("req = %+v", req)
	}
	req, err = parseOne(t, "delete foo noreply\r\n")
	if err != nil {
		t.Fatal(err)
	}
	if !req.NoReply {
		t.Fatal("noreply not parsed")
	}
}

func TestParseTouch(t *testing.T) {
	req, err := parseOne(t, "touch foo 100\r\n")
	if err != nil {
		t.Fatal(err)
	}
	if req.Command != CmdTouch || req.Exptime != 100 {
		t.Fatalf("req = %+v", req)
	}
}

func TestParseAdminCommands(t *testing.T) {
	tests := []struct {
		input string
		want  Command
	}{
		{input: "stats\r\n", want: CmdStats},
		{input: "flush_all\r\n", want: CmdFlushAll},
		{input: "version\r\n", want: CmdVersion},
		{input: "quit\r\n", want: CmdQuit},
	}
	for _, tt := range tests {
		req, err := parseOne(t, tt.input)
		if err != nil {
			t.Fatalf("parse(%q): %v", tt.input, err)
		}
		if req.Command != tt.want {
			t.Fatalf("parse(%q) = %v, want %v", tt.input, req.Command, tt.want)
		}
	}
}

func TestParseUnknownCommand(t *testing.T) {
	if _, err := parseOne(t, "bogus\r\n"); !errors.Is(err, ErrProtocol) {
		t.Fatal("want ErrProtocol for unknown command")
	}
}

func TestParseBadKeys(t *testing.T) {
	long := strings.Repeat("x", MaxKeyLen+1)
	tests := []string{
		"get\r\n",
		"get " + long + "\r\n",
		"set " + long + " 0 0 1\r\nx\r\n",
	}
	for _, input := range tests {
		if _, err := parseOne(t, input); err == nil {
			t.Fatalf("parse(%q) succeeded, want error", input[:20])
		}
	}
}

func TestParseKeyControlBytes(t *testing.T) {
	if err := validateKey([]byte("ok-key")); err != nil {
		t.Fatal(err)
	}
	if err := validateKey([]byte{'a', 0x01}); err == nil {
		t.Fatal("control byte accepted")
	}
	if err := validateKey([]byte{}); err == nil {
		t.Fatal("empty key accepted")
	}
}

func TestParseEOF(t *testing.T) {
	p := NewParser(strings.NewReader(""))
	if _, err := p.Next(); err != io.EOF {
		t.Fatalf("err = %v, want io.EOF", err)
	}
	p = NewParser(strings.NewReader("get fo")) // cut mid-line
	if _, err := p.Next(); err == nil {
		t.Fatal("truncated line accepted")
	}
}

func TestParseBareLF(t *testing.T) {
	req, err := parseOne(t, "get foo\n")
	if err != nil {
		t.Fatal(err)
	}
	if string(req.Keys[0]) != "foo" {
		t.Fatalf("keys = %v", req.Keys)
	}
}

func TestParsePipelined(t *testing.T) {
	p := NewParser(strings.NewReader("set a 0 0 1\r\nx\r\nget a\r\nquit\r\n"))
	want := []Command{CmdSet, CmdGet, CmdQuit}
	for i, w := range want {
		req, err := p.Next()
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if req.Command != w {
			t.Fatalf("request %d = %v, want %v", i, req.Command, w)
		}
	}
}

// TestRoundTripSetProperty: formatting a set and parsing it back preserves
// key and value for arbitrary binary payloads.
func TestRoundTripSetProperty(t *testing.T) {
	f := func(raw []byte, flags uint32) bool {
		if len(raw) > MaxValueLen {
			raw = raw[:MaxValueLen]
		}
		wire := FormatSet("some-key", flags, 0, raw, false)
		req, err := NewParser(bytes.NewReader(wire)).Next()
		if err != nil {
			return false
		}
		return req.Command == CmdSet &&
			string(req.Keys[0]) == "some-key" &&
			req.Flags == flags &&
			bytes.Equal(req.Value, raw)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestReplyReaderValues(t *testing.T) {
	var buf bytes.Buffer
	w := NewReplyWriter(&buf)
	if err := w.Value([]byte("a"), 1, []byte("va")); err != nil {
		t.Fatal(err)
	}
	if err := w.Value([]byte("b"), 2, []byte("vbb")); err != nil {
		t.Fatal(err)
	}
	if err := w.End(); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := NewReplyReader(&buf).ReadValues()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || string(got["a"]) != "va" || string(got["b"]) != "vbb" {
		t.Fatalf("values = %v", got)
	}
}

func TestReplyReaderEmptyValues(t *testing.T) {
	got, err := NewReplyReader(strings.NewReader("END\r\n")).ReadValues()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("values = %v, want empty", got)
	}
}

func TestReplyReaderServerError(t *testing.T) {
	_, err := NewReplyReader(strings.NewReader("SERVER_ERROR out of memory\r\n")).ReadValues()
	if !errors.Is(err, ErrServer) {
		t.Fatalf("err = %v, want ErrServer", err)
	}
	_, err = NewReplyReader(strings.NewReader("ERROR\r\n")).ReadSimple()
	if !errors.Is(err, ErrServer) {
		t.Fatalf("err = %v, want ErrServer", err)
	}
}

func TestReplyReaderSimple(t *testing.T) {
	line, err := NewReplyReader(strings.NewReader("STORED\r\n")).ReadSimple()
	if err != nil || line != "STORED" {
		t.Fatalf("ReadSimple = %q, %v", line, err)
	}
}

func TestReplyReaderStats(t *testing.T) {
	input := "STAT hits 10\r\nSTAT misses 2\r\nEND\r\n"
	got, err := NewReplyReader(strings.NewReader(input)).ReadStats()
	if err != nil {
		t.Fatal(err)
	}
	if got["hits"] != "10" || got["misses"] != "2" {
		t.Fatalf("stats = %v", got)
	}
}

func TestReplyReaderBadStat(t *testing.T) {
	if _, err := NewReplyReader(strings.NewReader("GARBAGE\r\nEND\r\n")).ReadStats(); err == nil {
		t.Fatal("bad stat line accepted")
	}
}

func TestFormatGetDelete(t *testing.T) {
	if got := string(FormatGet([]string{"a", "b"})); got != "get a b\r\n" {
		t.Fatalf("FormatGet = %q", got)
	}
	if got := string(AppendDelete(nil, "k", false)); got != "delete k\r\n" {
		t.Fatalf("AppendDelete = %q", got)
	}
	if got := string(AppendDelete(nil, "k", true)); got != "delete k noreply\r\n" {
		t.Fatalf("AppendDelete noreply = %q", got)
	}
}
