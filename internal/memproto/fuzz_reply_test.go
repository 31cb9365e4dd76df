package memproto

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"
)

// FuzzReplyReader drives every ReplyReader decode over arbitrary bytes, as
// a hostile or broken server could send them, and checks:
//
//   - it never panics and always terminates,
//   - every failure is a classified error (protocol, server-reported, or
//     the stream ending), never something else,
//   - a line longer than the read buffer is ErrProtocol, not an attempt to
//     buffer it,
//   - on every input made of plain wire bytes it agrees field for field —
//     and on accept/reject — with refReader below, the decoder it replaced
//     (ReadString lines, strings.Fields, strconv), which stays here as the
//     reference.
//
// Run `go test -fuzz FuzzReplyReader ./internal/memproto` (or `make fuzz`).

// refReader is the reference decoder. lines records every header line it
// consumed, terminator included, so the fuzz body can tell which inputs
// are outside the agreement (lenientLine) or over the line limit.
type refReader struct {
	r     *bufio.Reader
	lines []string
}

func (rr *refReader) readLine() (string, error) {
	line, err := rr.r.ReadString('\n')
	if err != nil {
		return "", err
	}
	rr.lines = append(rr.lines, line)
	return strings.TrimRight(line, "\r\n"), nil
}

func refErrorFromLine(line string) error {
	switch {
	case line == "ERROR":
		return fmt.Errorf("%w: ERROR", ErrServer)
	case strings.HasPrefix(line, "CLIENT_ERROR "), strings.HasPrefix(line, "SERVER_ERROR "):
		return fmt.Errorf("%w: %s", ErrServer, line)
	}
	return nil
}

func refParseValueLine(line string) (key string, flags uint32, size int, casToken uint64, err error) {
	fields := strings.Fields(line)
	if len(fields) < 4 || len(fields) > 5 || fields[0] != "VALUE" {
		return "", 0, 0, 0, ErrProtocol
	}
	f64, err := strconv.ParseUint(fields[2], 10, 32)
	if err != nil {
		return "", 0, 0, 0, ErrProtocol
	}
	size, err = strconv.Atoi(fields[3])
	if err != nil || size < 0 || size > MaxValueLen {
		return "", 0, 0, 0, ErrProtocol
	}
	if len(fields) == 5 {
		if casToken, err = strconv.ParseUint(fields[4], 10, 64); err != nil {
			return "", 0, 0, 0, ErrProtocol
		}
	}
	return fields[1], uint32(f64), size, casToken, nil
}

func (rr *refReader) readBody(size int) ([]byte, error) {
	body := make([]byte, size+2)
	if _, err := io.ReadFull(rr.r, body); err != nil {
		return nil, ErrProtocol
	}
	if !bytes.Equal(body[size:], []byte("\r\n")) {
		return nil, ErrProtocol
	}
	return body[:size], nil
}

// valueBlock is one decoded VALUE block.
type valueBlock struct {
	Key   string
	Flags uint32
	Value string
	CAS   uint64
}

func (rr *refReader) readValues() (any, error) {
	var out []valueBlock
	for {
		line, err := rr.readLine()
		if err != nil {
			return nil, err
		}
		if line == "END" {
			return out, nil
		}
		if err := refErrorFromLine(line); err != nil {
			return nil, err
		}
		key, flags, size, casToken, err := refParseValueLine(line)
		if err != nil {
			return nil, err
		}
		body, err := rr.readBody(size)
		if err != nil {
			return nil, err
		}
		out = append(out, valueBlock{key, flags, string(body), casToken})
	}
}

// leaseReply is a decoded lget response.
type leaseReply struct {
	Value string
	Flags uint32
	Hit   bool
	Token uint64
}

func (rr *refReader) expectEnd() error {
	end, err := rr.readLine()
	if err != nil {
		return err
	}
	if end != "END" {
		return ErrProtocol
	}
	return nil
}

func (rr *refReader) readLeaseGet() (any, error) {
	line, err := rr.readLine()
	if err != nil {
		return nil, err
	}
	if rest, ok := strings.CutPrefix(line, "LEASE "); ok {
		token, err := strconv.ParseUint(rest, 10, 64)
		if err != nil {
			return nil, ErrProtocol
		}
		return leaseReply{Token: token}, rr.expectEnd()
	}
	if err := refErrorFromLine(line); err != nil {
		return nil, err
	}
	_, flags, size, _, err := refParseValueLine(line)
	if err != nil {
		return nil, err
	}
	body, err := rr.readBody(size)
	if err != nil {
		return nil, err
	}
	return leaseReply{Value: string(body), Flags: flags, Hit: true}, rr.expectEnd()
}

func (rr *refReader) readSimple() (any, error) {
	line, err := rr.readLine()
	if err != nil {
		return nil, err
	}
	return line, refErrorFromLine(line)
}

func (rr *refReader) readStats() (any, error) {
	out := make(map[string]string)
	for {
		line, err := rr.readLine()
		if err != nil {
			return nil, err
		}
		if line == "END" {
			return out, nil
		}
		if err := refErrorFromLine(line); err != nil {
			return nil, err
		}
		rest, ok := strings.CutPrefix(line, "STAT ")
		if !ok {
			return nil, ErrProtocol
		}
		name, value, ok := strings.Cut(rest, " ")
		if !ok {
			return nil, ErrProtocol
		}
		out[name] = value
	}
}

// hotKeysReply is a decoded hotkeys response.
type hotKeysReply struct {
	Version uint64
	Entries []HotKeyTableEntry
}

func (rr *refReader) readHotKeys() (any, error) {
	line, err := rr.readLine()
	if err != nil {
		return nil, err
	}
	if err := refErrorFromLine(line); err != nil {
		return nil, err
	}
	rest, ok := strings.CutPrefix(line, "HOTKEYS ")
	if !ok {
		return nil, ErrProtocol
	}
	version, err := strconv.ParseUint(rest, 10, 64)
	if err != nil {
		return nil, ErrProtocol
	}
	reply := hotKeysReply{Version: version}
	for {
		line, err := rr.readLine()
		if err != nil {
			return nil, err
		}
		if line == "END" {
			return reply, nil
		}
		fields := strings.Fields(line)
		if len(fields) < 3 || fields[0] != "HK" {
			return nil, ErrProtocol
		}
		reply.Entries = append(reply.Entries, HotKeyTableEntry{Key: fields[1], Nodes: fields[2:]})
	}
}

// replyDecoders pairs each ReplyReader decode with its reference.
var replyDecoders = []struct {
	name string
	got  func(rr *ReplyReader, maxBlocks int) (any, error)
	want func(*refReader) (any, error)
}{
	{"values", func(rr *ReplyReader, maxBlocks int) (any, error) {
		var out []valueBlock
		err := rr.ReadValuesFunc(func(key string, flags uint32, value []byte, casToken uint64) error {
			if len(out) == maxBlocks {
				return errors.New("more VALUE blocks than input bytes: the reader is not consuming")
			}
			out = append(out, valueBlock{key, flags, string(value), casToken})
			return nil
		})
		return out, err
	}, (*refReader).readValues},
	{"lease", func(rr *ReplyReader, _ int) (any, error) {
		value, flags, hit, token, err := rr.ReadLeaseGet()
		return leaseReply{string(value), flags, hit, token}, err
	}, (*refReader).readLeaseGet},
	{"simple", func(rr *ReplyReader, _ int) (any, error) {
		return rr.ReadSimple()
	}, (*refReader).readSimple},
	{"stats", func(rr *ReplyReader, _ int) (any, error) {
		return rr.ReadStats()
	}, (*refReader).readStats},
	{"hotkeys", func(rr *ReplyReader, _ int) (any, error) {
		version, entries, err := rr.ReadHotKeys()
		return hotKeysReply{version, entries}, err
	}, (*refReader).readHotKeys},
}

// lenientLine reports a header line on which the two decoders may
// legitimately differ, because the reference was laxer than the wire
// format: strings.Fields also splits on \v, \f, interior \r and Unicode
// spaces, strconv.Atoi takes a sign, and strconv takes any number of
// leading zeros where the byte parser stops at 20 digits.
func lenientLine(raw string) bool {
	line := strings.TrimRight(raw, "\r\n")
	digits := 0
	for i := 0; i < len(line); i++ {
		c := line[i]
		switch {
		case c == '+', c == '-' && i+1 < len(line) && line[i+1] == '0':
			return true
		case c != ' ' && c != '\t' && (c < 0x21 || c > 0x7e):
			return true
		}
		if c >= '0' && c <= '9' {
			if digits++; digits > 20 {
				return true
			}
		} else {
			digits = 0
		}
	}
	return false
}

func FuzzReplyReader(f *testing.F) {
	// What a ReplyWriter emits for every reply family the client decodes.
	var wire bytes.Buffer
	w := NewReplyWriter(&wire)
	seed := func(build func()) {
		wire.Reset()
		build()
		if err := w.Flush(); err != nil {
			f.Fatal(err)
		}
		reply := append([]byte(nil), wire.Bytes()...)
		f.Add(reply)
		for _, cut := range []int{1, len(reply) / 2, len(reply) - 1} { // truncations
			if cut > 0 && cut < len(reply) {
				f.Add(reply[:cut])
			}
		}
	}
	seed(func() { _ = w.End() })
	seed(func() {
		_ = w.Value([]byte("k"), 7, []byte("hello"))
		_ = w.Value([]byte("bin"), 0, []byte{0, 1, '\r', '\n', 0xfe, 0xff})
		_ = w.Value([]byte("empty"), 1<<32-1, nil)
		_ = w.End()
	})
	seed(func() {
		_ = w.ValueCAS([]byte("k"), 0, []byte("v"), 1<<64-1)
		_ = w.End()
	})
	seed(func() { _ = w.Lease(42); _ = w.End() })
	seed(func() { _ = w.Lease(0); _ = w.End() })
	seed(func() { _ = w.Stored() })
	seed(func() { _ = w.NotStored() })
	seed(func() { _ = w.Exists() })
	seed(func() { _ = w.NotFound() })
	seed(func() { _ = w.Deleted() })
	seed(func() { _ = w.Touched() })
	seed(func() { _ = w.OK() })
	seed(func() { _ = w.Number(18446744073709551615) })
	seed(func() { _ = w.Version("1.6.0-elmem") })
	seed(func() { _ = w.Error() })
	seed(func() { _ = w.ClientError("bad data chunk") })
	seed(func() { _ = w.ServerError("out of memory") })
	seed(func() {
		_ = w.StatUint("pid", 1)
		_ = w.StatUint("curr_connections", 3)
		_ = w.Flush()
		wire.WriteString("STAT shard0:items 12 of 40\r\n") // a non-numeric value
		_ = w.End()
	})
	seed(func() {
		_ = w.HotKeysHeader(9)
		_ = w.HotKeyEntry("hot", []string{"127.0.0.1:1", "127.0.0.1:2"})
		_ = w.HotKeyEntry("warm", []string{"127.0.0.1:3"})
		_ = w.End()
	})
	seed(func() { _ = w.HotKeysHeader(0); _ = w.End() })
	// Outside the format: an over-long line (with and without an end), and
	// the forms only the reference accepted.
	long := bytes.Repeat([]byte("a"), replyBufSize+100)
	f.Add(long)
	f.Add(append(append([]byte("VALUE "), long...), " 0 1\r\nx\r\nEND\r\n"...))
	f.Add([]byte("VALUE k 0 +1\r\nx\r\nEND\r\n"))
	f.Add([]byte("VALUE k 0 000000000000000000001\r\nx\r\nEND\r\n"))
	f.Add([]byte("VALUE k\v0 0 1\r\nx\r\nEND\r\n"))
	f.Add([]byte("VALUE k 0 1\r\nxyEND\r\n"))
	f.Add([]byte("END\r\r\n"))
	// The read buffer's edges: a VALUE body past it (decoded through the
	// copy fallback) and one whose CRLF ends exactly at its last byte.
	for _, in := range bufferEdgeReplies() {
		f.Add(in)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, d := range replyDecoders {
			ref := &refReader{r: bufio.NewReader(bytes.NewReader(data))}
			want, wantErr := d.want(ref)
			got, gotErr := d.got(NewReplyReader(bytes.NewReader(data)), len(data))

			if gotErr != nil && !errors.Is(gotErr, ErrProtocol) && !errors.Is(gotErr, ErrServer) &&
				!errors.Is(gotErr, io.EOF) && !errors.Is(gotErr, io.ErrUnexpectedEOF) {
				t.Fatalf("%s: unclassified error %v", d.name, gotErr)
			}
			lenient := false
			for _, line := range ref.lines {
				if len(line) > replyBufSize {
					if !errors.Is(gotErr, ErrProtocol) {
						t.Fatalf("%s: a %d-byte line gave %v, want ErrProtocol", d.name, len(line), gotErr)
					}
					lenient = true
				}
				lenient = lenient || lenientLine(line)
			}
			if lenient {
				continue
			}
			if (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("%s: error %v, reference %v", d.name, gotErr, wantErr)
			}
			if gotErr == nil && !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: decoded %#v, reference %#v", d.name, got, want)
			}
		}
	})
}

// TestReplyReaderOverlongLine: a reply line that does not fit the read
// buffer is a protocol error on every decode, terminated or not.
func TestReplyReaderOverlongLine(t *testing.T) {
	long := strings.Repeat("a", replyBufSize+1)
	for _, input := range []string{long, long + "\r\nEND\r\n"} {
		for _, d := range replyDecoders {
			_, err := d.got(NewReplyReader(strings.NewReader(input)), len(input))
			if !errors.Is(err, ErrProtocol) {
				t.Errorf("%s on a %d-byte line: %v, want ErrProtocol", d.name, len(input), err)
			}
		}
	}
}

// bufferEdgeReplies are get replies whose VALUE bodies sit at the read
// buffer's edges: one ending exactly at the buffer's last byte, one whose
// value and CRLF fill the whole buffer, one just past it and one well past
// it (both through the copy fallback).
func bufferEdgeReplies() [][]byte {
	block := func(size int) string {
		return fmt.Sprintf("VALUE k 3 %d\r\n%s\r\n", size, bytes.Repeat([]byte{'v'}, size))
	}
	// The header is 17 bytes for every 5-digit size.
	endsAtBufferEnd := block(replyBufSize-17-2) + "END\r\n"
	return [][]byte{
		[]byte(endsAtBufferEnd),
		[]byte(block(replyBufSize-2) + "END\r\n"),
		[]byte(block(replyBufSize-1) + block(1) + "END\r\n"),
		[]byte(block(3*replyBufSize) + block(0) + "END\r\n"),
	}
}

// TestReplyReaderInPlaceAcrossReads decodes replies whose VALUE bodies
// straddle reads of every size — one byte at a time, half of each read —
// and checks every decode, the in-place views included, against the
// reference decoder's copies.
func TestReplyReaderInPlaceAcrossReads(t *testing.T) {
	var wire bytes.Buffer
	w := NewReplyWriter(&wire)
	for i, size := range []int{0, 1, 100, 4096, replyBufSize / 2, replyBufSize - 40} {
		_ = w.Value([]byte(fmt.Sprintf("k%d", i)), uint32(i), bytes.Repeat([]byte{byte('a' + i)}, size))
	}
	_ = w.End()
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	replies := append(bufferEdgeReplies(), wire.Bytes())
	readers := []struct {
		name string
		wrap func(io.Reader) io.Reader
	}{
		{"whole", func(r io.Reader) io.Reader { return r }},
		{"one-byte", iotest.OneByteReader},
		{"half", iotest.HalfReader},
	}
	for i, in := range replies {
		for _, d := range replyDecoders {
			want, wantErr := d.want(&refReader{r: bufio.NewReader(bytes.NewReader(in))})
			for _, rd := range readers {
				got, err := d.got(NewReplyReader(rd.wrap(bytes.NewReader(in))), len(in))
				if (err == nil) != (wantErr == nil) {
					t.Fatalf("reply %d, %s, %s reads: error %v, reference %v", i, d.name, rd.name, err, wantErr)
				}
				if err == nil && !reflect.DeepEqual(got, want) {
					t.Fatalf("reply %d, %s, %s reads: decoded blocks differ from the reference", i, d.name, rd.name)
				}
			}
		}
	}
}
