package memproto

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

// FuzzParser drives Next over arbitrary byte streams and checks the
// parser's safety contract:
//
//   - it never panics and never reads past the stream,
//   - it always makes progress (a stuck parser would spin a server
//     goroutine forever on a hostile connection),
//   - every successfully parsed request satisfies the protocol limits
//     (key length and character set, value size),
//   - recoverable errors really resync: a stream the parser finished
//     cleanly, extended with a sentinel request, parses the sentinel.
//
// Run `go test -fuzz FuzzParser ./internal/memproto` (or `make fuzz`) to
// explore beyond the checked-in corpus.

// countingReader counts bytes handed to the parser's bufio layer so the
// fuzz body can measure consumption as given − Buffered().
type countingReader struct {
	r *bytes.Reader
	n int
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	return n, err
}

// parseAll runs the parser over data until a clean EOF or an
// unrecoverable error, checking panic-freedom, progress, and per-request
// field validity. It returns the last parsed command and whether the
// stream ended in a clean io.EOF at a request boundary.
func parseAll(t *testing.T, data []byte) (last Command, cleanEOF bool) {
	t.Helper()
	cr := &countingReader{r: bytes.NewReader(data)}
	p := NewParser(cr)
	// A request consumes at least one byte, so a stream of len(data) bytes
	// yields at most len(data) results plus the terminal EOF. Hitting the
	// bound means the parser stopped consuming input.
	maxSteps := len(data) + 2
	prevConsumed := -1
	for steps := 0; ; steps++ {
		if steps > maxSteps {
			t.Fatalf("parser made no progress after %d steps on %d bytes", steps, len(data))
		}
		req, err := p.Next()
		consumed := cr.n - p.Buffered()
		if consumed > len(data) {
			t.Fatalf("parser claims %d bytes consumed of a %d-byte stream", consumed, len(data))
		}
		if err == nil || IsRecoverable(err) {
			if consumed <= prevConsumed {
				t.Fatalf("no bytes consumed at step %d (consumed=%d, err=%v)", steps, consumed, err)
			}
		}
		prevConsumed = consumed
		switch {
		case err == nil:
			checkRequest(t, req)
			last = req.Command
		case errors.Is(err, io.EOF):
			return last, true
		case IsRecoverable(err):
			// The stream is positioned at the next request line; continue.
		default:
			// Desynchronized or truncated: the server would close here.
			return last, false
		}
	}
}

// checkRequest asserts the protocol limits on a successfully parsed
// request: these bound the allocations a hostile client can force.
func checkRequest(t *testing.T, req *Request) {
	t.Helper()
	for _, key := range req.Keys {
		if len(key) == 0 || len(key) > MaxKeyLen {
			t.Fatalf("parsed key of length %d (limit %d)", len(key), MaxKeyLen)
		}
		for _, b := range key {
			if b <= ' ' || b == 0x7f {
				t.Fatalf("parsed key with control/space byte %#x", b)
			}
		}
	}
	if len(req.Value) > MaxValueLen {
		t.Fatalf("parsed value of %d bytes (limit %d)", len(req.Value), MaxValueLen)
	}
	switch req.Command {
	case CmdGet, CmdGets:
		if len(req.Keys) == 0 {
			t.Fatal("get parsed with zero keys")
		}
	case CmdSet, CmdAdd, CmdReplace, CmdAppend, CmdPrepend, CmdCas,
		CmdIncr, CmdDecr, CmdDelete, CmdTouch:
		if len(req.Keys) != 1 {
			t.Fatalf("command %d parsed with %d keys, want 1", req.Command, len(req.Keys))
		}
	}
}

func FuzzParser(f *testing.F) {
	// Every command form the parser accepts, including noreply variants,
	// binary values, and multi-key gets.
	valid := []string{
		"get k\r\n",
		"get a b ccc\r\n",
		"gets k\r\n",
		"set k 7 0 5\r\nhello\r\n",
		"set k 0 3600 3 noreply\r\nabc\r\n",
		"set bin 0 0 4\r\n\x00\x01\xfe\xff\r\n",
		"add k 1 2 2\r\nhi\r\n",
		"replace k 0 0 0\r\n\r\n",
		"append k 0 0 1\r\nx\r\n",
		"prepend k 0 0 1\r\ny\r\n",
		"cas k 0 0 2 41\r\nok\r\n",
		"cas k 0 0 2 41 noreply\r\nok\r\n",
		"incr k 5\r\n",
		"decr k 1 noreply\r\n",
		"delete k\r\n",
		"delete k noreply\r\n",
		"touch k 300\r\n",
		"touch k 0 noreply\r\n",
		"lget k\r\n",
		"lset k 0 60 2 7\r\nhi\r\n",
		"lset k 3 0 0 9 noreply\r\n\r\n",
		"stats\r\n",
		"flush_all\r\n",
		"flush_all noreply\r\n",
		"version\r\n",
		"quit\r\n",
	}
	// The recovery-contract corpus: malformed inputs a parser must survive
	// and resync past (see recovery_test.go).
	malformed := []string{
		"bogus nonsense\r\nget ok\r\n",
		"set k x 0 5\r\nhello\r\nget ok\r\n",
		"set " + string(bytes.Repeat([]byte("x"), MaxKeyLen+1)) + " 0 0 2\r\nhi\r\nget ok\r\n",
		"get " + string(bytes.Repeat([]byte("k "), 40<<10)) + "\r\nget ok\r\n",
		"set k 0 0 5\r\nhi",     // truncated body
		"get k",                 // truncated line
		"\r\n",                  // empty command
		"set k 0 0 -1\r\n",      // negative byte count
		"set k 0 0 1048577\r\n", // over MaxValueLen
		"incr k notanumber\r\n",
		"get\r\n", // no keys
		"set k 0 0 5\r\nhelloXX",
		"\x00\x01\x02\r\nversion\r\n",
		"lget a b\r\nget ok\r\n",       // lget takes exactly one key
		"lset k 0 0 2\r\nhi\r\n",       // lset without its token
		"namespace acme\r\nget ok\r\n", // not a verb: unknown command, resync
	}
	for _, s := range valid {
		f.Add([]byte(s))
	}
	for _, s := range malformed {
		f.Add([]byte(s))
	}
	// Pipelined mixtures.
	f.Add([]byte("set a 0 0 2\r\nhi\r\nget a\r\ndelete a\r\nquit\r\n"))
	f.Add([]byte("bad\r\nset a 0 0 2\r\nhi\r\nbad again\r\nget a\r\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		_, clean := parseAll(t, data)
		if !clean {
			return
		}
		// Resync property: a stream that ended cleanly at a request
		// boundary, extended with a sentinel request, must parse the
		// sentinel — whatever recoverable errors the prefix produced.
		extended := append(append([]byte{}, data...), "version\r\n"...)
		last, cleanExt := parseAll(t, extended)
		if !cleanExt || last != CmdVersion {
			t.Fatalf("sentinel after clean prefix not parsed (last=%d clean=%v)", last, cleanExt)
		}
	})
}
