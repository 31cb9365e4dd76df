package memproto

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"
)

func TestParseStorageFamily(t *testing.T) {
	tests := []struct {
		input string
		want  Command
	}{
		{input: "add k 0 0 2\r\nhi\r\n", want: CmdAdd},
		{input: "replace k 0 0 2\r\nhi\r\n", want: CmdReplace},
		{input: "append k 0 0 2\r\nhi\r\n", want: CmdAppend},
		{input: "prepend k 0 0 2\r\nhi\r\n", want: CmdPrepend},
	}
	for _, tt := range tests {
		req, err := parseOne(t, tt.input)
		if err != nil {
			t.Fatalf("parse(%q): %v", tt.input, err)
		}
		if req.Command != tt.want {
			t.Fatalf("parse(%q) = %v, want %v", tt.input, req.Command, tt.want)
		}
		if string(req.Value) != "hi" {
			t.Fatalf("value = %q", req.Value)
		}
	}
}

func TestParseCas(t *testing.T) {
	req, err := parseOne(t, "cas k 3 100 5 42\r\nhello\r\n")
	if err != nil {
		t.Fatal(err)
	}
	if req.Command != CmdCas || req.CAS != 42 || req.Flags != 3 || req.Exptime != 100 {
		t.Fatalf("req = %+v", req)
	}
	if string(req.Value) != "hello" {
		t.Fatalf("value = %q", req.Value)
	}
	if req.NoReply {
		t.Fatal("unexpected noreply")
	}
}

func TestParseCasNoReply(t *testing.T) {
	req, err := parseOne(t, "cas k 0 0 2 7 noreply\r\nhi\r\n")
	if err != nil {
		t.Fatal(err)
	}
	if !req.NoReply || req.CAS != 7 {
		t.Fatalf("req = %+v", req)
	}
}

func TestParseCasErrors(t *testing.T) {
	for _, input := range []string{
		"cas k 0 0 2\r\nhi\r\n",         // missing token
		"cas k 0 0 2 xyz\r\nhi\r\n",     // bad token
		"cas k 0 0 2 7 stray\r\nhi\r\n", // bad trailing token
	} {
		if _, err := parseOne(t, input); err == nil {
			t.Fatalf("parse(%q) succeeded, want error", input)
		}
	}
}

func TestParseIncrDecr(t *testing.T) {
	req, err := parseOne(t, "incr counter 5\r\n")
	if err != nil {
		t.Fatal(err)
	}
	if req.Command != CmdIncr || req.Delta != 5 || string(req.Keys[0]) != "counter" {
		t.Fatalf("req = %+v", req)
	}
	req, err = parseOne(t, "decr counter 3 noreply\r\n")
	if err != nil {
		t.Fatal(err)
	}
	if req.Command != CmdDecr || req.Delta != 3 || !req.NoReply {
		t.Fatalf("req = %+v", req)
	}
}

func TestParseIncrErrors(t *testing.T) {
	for _, input := range []string{
		"incr k\r\n",       // missing delta
		"incr k abc\r\n",   // non-numeric delta
		"incr k -5\r\n",    // negative delta
		"incr k 1 2 3\r\n", // too many args
	} {
		if _, err := parseOne(t, input); err == nil {
			t.Fatalf("parse(%q) succeeded, want error", input)
		}
	}
}

func TestValueCASRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewReplyWriter(&buf)
	if err := w.ValueCAS([]byte("k"), 7, []byte("vv"), 99); err != nil {
		t.Fatal(err)
	}
	if err := w.End(); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := NewReplyReader(&buf).ReadValuesCAS()
	if err != nil {
		t.Fatal(err)
	}
	entry, ok := got["k"]
	if !ok || string(entry.Value) != "vv" || entry.CAS != 99 {
		t.Fatalf("gets round trip = %+v", got)
	}
}

func TestReadValuesToleratesCASField(t *testing.T) {
	// A plain ReadValues must still parse 5-field VALUE lines.
	input := "VALUE k 0 2 55\r\nhi\r\nEND\r\n"
	got, err := NewReplyReader(strings.NewReader(input)).ReadValues()
	if err != nil {
		t.Fatal(err)
	}
	if string(got["k"]) != "hi" {
		t.Fatalf("values = %v", got)
	}
}

func TestParseValueLineErrors(t *testing.T) {
	for _, line := range []string{
		"VALUE k 0",          // too few fields
		"VALUE k 0 2 3 4",    // too many fields
		"NOTVALUE k 0 2",     // bad keyword
		"VALUE k x 2",        // bad flags
		"VALUE k 0 x",        // bad size
		"VALUE k 0 99999999", // oversized
		"VALUE k 0 2 x",      // bad cas
	} {
		if _, _, _, _, err := parseValueLine([]byte(line)); err == nil {
			t.Fatalf("parseValueLine(%q) succeeded, want error", line)
		}
	}
}

func TestReplyWriterExistsAndNumber(t *testing.T) {
	var buf bytes.Buffer
	w := NewReplyWriter(&buf)
	if err := w.Exists(); err != nil {
		t.Fatal(err)
	}
	if err := w.Number(123); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != "EXISTS\r\n123\r\n" {
		t.Fatalf("wire = %q", got)
	}
}

// TestParserNeverPanicsOnRandomInput hammers the parser with arbitrary
// bytes: it must return errors, never panic, and never return a request
// with invariant-breaking fields.
func TestParserNeverPanicsOnRandomInput(t *testing.T) {
	f := func(raw []byte) bool {
		p := NewParser(bytes.NewReader(raw))
		for i := 0; i < 16; i++ {
			req, err := p.Next()
			if err != nil {
				return true // any error is acceptable; panics are not
			}
			if req == nil {
				return false
			}
			for _, k := range req.Keys {
				if len(k) == 0 || len(k) > MaxKeyLen {
					return false
				}
			}
			if len(req.Value) > MaxValueLen {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 2000}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestParserNeverPanicsOnMutatedCommands mutates valid commands byte by
// byte — closer to the interesting boundary than pure noise.
func TestParserNeverPanicsOnMutatedCommands(t *testing.T) {
	seeds := []string{
		"get foo\r\n",
		"gets a b c\r\n",
		"set foo 1 2 5\r\nhello\r\n",
		"cas foo 0 0 2 42\r\nhi\r\n",
		"incr n 5\r\n",
		"delete foo noreply\r\n",
		"touch foo 100\r\n",
		"stats\r\n",
	}
	f := func(seedIdx uint8, pos uint16, b byte) bool {
		seed := []byte(seeds[int(seedIdx)%len(seeds)])
		mutated := make([]byte, len(seed))
		copy(mutated, seed)
		mutated[int(pos)%len(mutated)] = b
		p := NewParser(bytes.NewReader(mutated))
		for i := 0; i < 4; i++ {
			if _, err := p.Next(); err != nil {
				return true
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 3000}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
