package agentrpc

// Unit tests for the binary frame codec: header round trips, payload
// encodings, reply statuses, the zero-time sentinel, offers split across frames, and
// rejection of truncated, corrupt, hostile or old-version input at every
// decode boundary.

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/agent"
	"repro/internal/cache"
	"repro/internal/fusecache"
	"repro/internal/taskgroup"
)

func TestFrameRoundTrip(t *testing.T) {
	var netBuf bytes.Buffer
	bw := bufio.NewWriter(&netBuf)
	payloads := [][]byte{nil, []byte("x"), bytes.Repeat([]byte{0xEB}, 4096)}
	for i, p := range payloads {
		if err := writeFrame(bw, byte(i+1), p); err != nil {
			t.Fatal(err)
		}
	}
	for i, want := range payloads {
		typ, got, err := readFrame(&netBuf)
		if err != nil {
			t.Fatal(err)
		}
		if typ != byte(i+1) {
			t.Fatalf("frame %d type = %d", i, typ)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frame %d payload mismatch: %d bytes vs %d", i, len(got), len(want))
		}
		putBuf(got)
	}
}

// corruptHeaders is the header rejection corpus (also seeds FuzzDecodeFrame).
var corruptHeaders = map[string][]byte{
	"bad magic":    {0x7B, frameVersion, ftImportOpen, 0, 0, 0, 0},
	"bad version":  {frameMagic, 99, ftImportOpen, 0, 0, 0, 0},
	"version 1":    {frameMagic, 1, ftImportOpen, 0, 0, 0, 0},
	"version 3":    {frameMagic, 3, ftCall, 0, 0, 0, 0},
	"huge payload": {frameMagic, frameVersion, ftImportOpen, 0xFF, 0xFF, 0xFF, 0xFF},
	"truncated":    {frameMagic, frameVersion, ftImportOpen, 0, 0, 0, 5, 'a', 'b'},
}

func TestReadFrameRejectsCorruptHeaders(t *testing.T) {
	for name, raw := range corruptHeaders {
		if _, _, err := readFrame(bytes.NewReader(raw)); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
	// Version 1 pairs carry no expiry, and a version-3 peer sends no call
	// frames: such frames are refused outright, not mis-decoded.
	for _, v := range []string{"1", "3"} {
		_, _, err := readFrame(bytes.NewReader(corruptHeaders["version "+v]))
		if err == nil || !strings.Contains(err.Error(), "unsupported frame version "+v) {
			t.Fatalf("version-%s frame: err = %v, want unsupported frame version", v, err)
		}
	}
}

func TestImportOpenRoundTrip(t *testing.T) {
	b := appendImportOpen(getBuf(), "node-a", 7, 0xDEADBEEF, 16)
	from, round, fp, window, err := decodeImportOpen(b)
	if err != nil {
		t.Fatal(err)
	}
	if from != "node-a" || round != 7 || fp != 0xDEADBEEF || window != 16 {
		t.Fatalf("decoded (%q, %d, %#x, %d)", from, round, fp, window)
	}
	for cut := 0; cut < len(b); cut++ {
		if _, _, _, _, err := decodeImportOpen(b[:cut]); err == nil {
			t.Fatalf("truncation at %d/%d decoded without error", cut, len(b))
		}
	}
	putBuf(b)
}

func TestAckRoundTrips(t *testing.T) {
	b := appendOpenAck(getBuf(), 42, nil)
	hw, remote, err := decodeOpenAck(b)
	if err != nil || remote != nil || hw != 42 {
		t.Fatalf("open ack = (%d, %v, %v)", hw, remote, err)
	}
	putBuf(b)

	b = appendOpenAck(getBuf(), 0, errors.New("kaboom"))
	if _, remote, err := decodeOpenAck(b); err != nil || remote == nil || remote.Error() != "agentrpc: remote error: kaboom" {
		t.Fatalf("open error ack = (%v, %v)", remote, err)
	}
	putBuf(b)

	b = appendBatchAck(getBuf(), 9, 9, 128, nil)
	seq, hw, imported, remote, err := decodeBatchAck(b)
	if err != nil || remote != nil || seq != 9 || hw != 9 || imported != 128 {
		t.Fatalf("batch ack = (%d, %d, %d, %v, %v)", seq, hw, imported, remote, err)
	}
	putBuf(b)

	b = appendBatchAck(getBuf(), 3, 0, 0, agent.ErrStaleRound)
	if _, _, _, remote, err = decodeBatchAck(b); err != nil || !errors.Is(remote, agent.ErrStaleRound) {
		t.Fatalf("batch error ack = (%v, %v)", remote, err)
	}
	putBuf(b)

	if _, _, err := decodeOpenAck(nil); err == nil {
		t.Fatal("empty open ack decoded")
	}
	if _, _, _, _, err := decodeBatchAck([]byte{statusOK}); err == nil {
		t.Fatal("truncated batch ack decoded")
	}
}

func TestImportBatchRoundTrip(t *testing.T) {
	ts := time.Unix(1_700_000_123, 456)
	pairs := []cache.KV{
		{Key: "alpha", Value: []byte("value-1"), Flags: 7, LastAccess: ts, Expiry: ts.Add(time.Hour)},
		{Key: "beta", Value: nil, Flags: 0},                     // zero times → sentinel
		{Key: strings.Repeat("k", 300), Value: make([]byte, 5)}, // multi-byte varint key length
	}
	b := appendImportBatch(getBuf(), "sender", 3, 11, pairs)
	from, round, seq, got, err := decodeImportBatch(b)
	if err != nil {
		t.Fatal(err)
	}
	if from != "sender" || round != 3 || seq != 11 {
		t.Fatalf("header = (%q, %d, %d)", from, round, seq)
	}
	if len(got) != len(pairs) {
		t.Fatalf("decoded %d pairs, want %d", len(got), len(pairs))
	}
	for i := range pairs {
		if got[i].Key != pairs[i].Key || !bytes.Equal(got[i].Value, pairs[i].Value) || got[i].Flags != pairs[i].Flags {
			t.Fatalf("pair %d mismatch: %+v", i, got[i])
		}
		if !got[i].LastAccess.Equal(pairs[i].LastAccess) {
			t.Fatalf("pair %d timestamp %v, want %v", i, got[i].LastAccess, pairs[i].LastAccess)
		}
		if !got[i].Expiry.Equal(pairs[i].Expiry) || got[i].Expiry.IsZero() != pairs[i].Expiry.IsZero() {
			t.Fatalf("pair %d expiry %v, want %v", i, got[i].Expiry, pairs[i].Expiry)
		}
	}
	// Every truncation point must fail loudly, never mis-decode.
	for cut := 0; cut < len(b); cut++ {
		if _, _, _, _, err := decodeImportBatch(b[:cut]); err == nil {
			t.Fatalf("truncation at %d/%d decoded without error", cut, len(b))
		}
	}
	putBuf(b)
}

// TestImportBatchValueAliasing documents the zero-copy contract: decoded
// values alias the frame payload, so the payload must outlive the pairs.
func TestImportBatchValueAliasing(t *testing.T) {
	pairs := []cache.KV{{Key: "k", Value: []byte("immutable")}}
	b := appendImportBatch(getBuf(), "s", 1, 1, pairs)
	_, _, _, got, err := decodeImportBatch(b)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-21] ^= 0xFF // the value's last byte: flags + two timestamps trail it
	if bytes.Equal(got[0].Value, []byte("immutable")) {
		t.Fatal("decoded value did not alias the payload — the zero-copy path regressed")
	}
}

// offerFixture is a multi-class offer with the awkward stamps: equal runs,
// a negative stamp, the zero-time sentinel (math.MinInt64) and a list long
// enough to need multi-byte deltas.
func offerFixture() map[int]fusecache.List {
	long := make(fusecache.List, 2000)
	ts := int64(1_700_000_000_000_000_000)
	for i := range long {
		long[i] = ts
		ts -= int64(i%5) * 977
	}
	return map[int]fusecache.List{
		0:  {1_700_000_000_000_000_900, 1_700_000_000_000_000_900, 1_700_000_000_000_000_100},
		3:  long,
		7:  {42},
		12: {5, -5, math.MinInt64},
		40: {}, // empty lists are not sent
	}
}

// offerRound is the round the offer tests encode: large enough that its
// varint spans several bytes, so truncations cut inside it.
const offerRound = 1<<56 + 3

// encodeOffer runs offerFrames and returns a copy of every payload.
func encodeOffer(t *testing.T, from string, lists map[int]fusecache.List, maxPayload int) [][]byte {
	t.Helper()
	var frames [][]byte
	if err := offerFrames(from, offerRound, lists, maxPayload, func(p []byte) error {
		frames = append(frames, append([]byte(nil), p...))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return frames
}

// decodeOffer feeds payloads to one offerDecoder, requiring only the last
// to be final.
func decodeOffer(payloads [][]byte) (offerDecoder, error) {
	var d offerDecoder
	for i, p := range payloads {
		final, err := d.frame(p)
		if err != nil {
			return d, err
		}
		if final != (i == len(payloads)-1) {
			return d, fmt.Errorf("frame %d/%d final = %v", i, len(payloads), final)
		}
	}
	return d, nil
}

// TestOfferRoundTrip: an offer decodes to the lists it was built from,
// whether it fits one frame or is split across many by a small frame cap;
// every truncation of an encoded frame fails loudly.
func TestOfferRoundTrip(t *testing.T) {
	lists := offerFixture()
	want := make(map[int]fusecache.List)
	for id, l := range lists {
		if len(l) > 0 {
			want[id] = l
		}
	}
	for _, maxPayload := range []int{maxFramePayload, 4096, 64, 48} {
		frames := encodeOffer(t, "node-a", lists, maxPayload)
		if maxPayload < 4096 && len(frames) < 3 {
			t.Fatalf("cap %d: %d frames, want the long list split", maxPayload, len(frames))
		}
		for i, f := range frames {
			if len(f) > maxPayload {
				t.Fatalf("cap %d: frame %d is %d bytes", maxPayload, i, len(f))
			}
		}
		d, err := decodeOffer(frames)
		if err != nil {
			t.Fatalf("cap %d: %v", maxPayload, err)
		}
		if d.from != "node-a" || d.round != offerRound || !reflect.DeepEqual(d.lists, want) {
			t.Fatalf("cap %d: decoded %q round %d %v", maxPayload, d.from, d.round, d.lists)
		}
		for cut := 0; cut < len(frames[0]); cut++ {
			var d offerDecoder
			if _, err := d.frame(frames[0][:cut]); err == nil {
				t.Fatalf("cap %d: truncation at %d/%d decoded without error", maxPayload, cut, len(frames[0]))
			}
		}
	}
	// The empty offer is one final frame with no classes.
	d, err := decodeOffer(encodeOffer(t, "node-a", nil, maxFramePayload))
	if err != nil || len(d.lists) != 0 {
		t.Fatalf("empty offer decoded to %v, %v", d.lists, err)
	}
	if err := offerFrames("n", 1, map[int]fusecache.List{1: {1, 2}}, maxFramePayload, func([]byte) error { return nil }); !errors.Is(err, fusecache.ErrUnsorted) {
		t.Fatalf("unsorted list: err = %v, want ErrUnsorted", err)
	}
	if err := offerFrames("n", 1, map[int]fusecache.List{1: {1}}, 16, func([]byte) error { return nil }); err == nil {
		t.Fatal("a frame cap too small for one stamp encoded without error")
	}
	if err := offerFrames("n", 1, map[int]fusecache.List{maxOfferClass + 1: {1}}, maxFramePayload, func([]byte) error { return nil }); err == nil {
		t.Fatal("an out-of-range class encoded without error")
	}
}

// offerPayload hand-builds an offerMeta payload: from, round, flag, class
// count, then raw segment bytes.
func offerPayload(from string, round uint64, final byte, segs uint32, body ...byte) []byte {
	b := appendStr(nil, from)
	b = binary.AppendUvarint(b, round)
	b = append(b, final)
	b = binary.BigEndian.AppendUint32(b, segs)
	return append(b, body...)
}

// seg hand-builds one class segment: the class ID, a stamp count, then
// raw stamp bytes.
func seg(id uint64, cnt uint32, stamps ...byte) []byte {
	b := binary.AppendUvarint(nil, id)
	b = binary.BigEndian.AppendUint32(b, cnt)
	return append(b, stamps...)
}

// TestOfferDecoderRefusesHostileInput: each payload below is something an
// honest encoder never produces; the decoder must refuse it before trusting
// a count or a stamp, never allocate by a count the payload cannot back.
func TestOfferDecoderRefusesHostileInput(t *testing.T) {
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	minStamp := binary.AppendVarint(nil, math.MinInt64+5)
	cases := map[string][][]byte{
		"count beyond payload":    {offerPayload("s", 9, 1, 1, seg(3, 1<<31, 2, 0, 0)...)},
		"class count beyond":      {offerPayload("s", 9, 1, 1<<30, seg(3, 1, 2)...)},
		"zero count":              {offerPayload("s", 9, 1, 1, seg(3, 0, 2)...)},
		"duplicate class":         {offerPayload("s", 9, 1, 2, cat(seg(3, 1, 2), seg(3, 1, 2))...)},
		"descending classes":      {offerPayload("s", 9, 1, 2, cat(seg(5, 1, 2), seg(3, 1, 2))...)},
		"class out of range":      {offerPayload("s", 9, 1, 1, seg(maxOfferClass+1, 1, 2)...)},
		"truncated count":         {offerPayload("s", 9, 1, 1, 3, 0, 0)},
		"truncated varint":        {offerPayload("s", 9, 1, 1, seg(3, 2, 2, 0x80)...)},
		"overlong varint":         {offerPayload("s", 9, 1, 1, seg(3, 2, 2, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01)...)},
		"stray bytes":             {offerPayload("s", 9, 1, 1, seg(3, 1, 2, 9)...)},
		"bad flag":                {offerPayload("s", 9, 2, 0)},
		"delta underflow":         {offerPayload("s", 9, 1, 1, seg(3, 2, append(minStamp, 6)...)...)},
		"interleaved sender":      {offerPayload("a", 9, 0, 1, seg(3, 1, 2)...), offerPayload("b", 9, 1, 0)},
		"interleaved round":       {offerPayload("s", 9, 0, 1, seg(3, 1, 2)...), offerPayload("s", 10, 1, 0)},
		"truncated round":         {append(appendStr(nil, "s"), 0x80, 0x80)},
		"no round":                {appendStr(nil, "s")},
		"rising continuation":     {offerPayload("s", 9, 0, 1, seg(3, 1, 2)...), offerPayload("s", 9, 1, 1, seg(3, 1, 4)...)},
		"revisited earlier class": {offerPayload("s", 9, 0, 2, cat(seg(1, 1, 2), seg(3, 1, 2))...), offerPayload("s", 9, 1, 1, seg(1, 1, 2)...)},
	}
	for name, frames := range cases {
		var d offerDecoder
		var err error
		for _, f := range frames {
			if _, err = d.frame(f); err != nil {
				break
			}
		}
		if err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
	// A continuation that does not rise is a split list, not an attack.
	d, err := decodeOffer([][]byte{offerPayload("s", 9, 0, 1, seg(3, 1, 4)...), offerPayload("s", 9, 1, 1, seg(3, 1, 2)...)})
	if err != nil || !reflect.DeepEqual(d.lists, map[int]fusecache.List{3: {2, 1}}) {
		t.Fatalf("split list decoded to %v, %v", d.lists, err)
	}
}

// TestStatusRoundTrip: the status every reply and ack opens with carries
// success, or an error whose text survives and which is ErrRemote and the
// agent sentinel it wrapped, also when that error is relayed a second hop.
func TestStatusRoundTrip(t *testing.T) {
	body, remote, err := splitStatus(append(appendStatus(nil, nil), "body"...))
	if err != nil || remote != nil || string(body) != "body" {
		t.Fatalf("success status split to (%q, %v, %v)", body, remote, err)
	}
	sentinels := []error{nil}
	for _, s := range statusErrs {
		if s != nil {
			sentinels = append(sentinels, s)
		}
	}
	if len(sentinels) != 5 {
		t.Fatalf("status table holds %d sentinels, want the agent's 4", len(sentinels)-1)
	}
	for _, want := range sentinels {
		sent := errors.New("agent: refused")
		if want != nil {
			sent = taskgroup.Permanent(fmt.Errorf("op: %w: %q", want, "detail"))
		}
		for hop := 1; hop <= 2; hop++ {
			_, remote, err := splitStatus(appendStatus(nil, sent))
			if err != nil || remote == nil {
				t.Fatalf("%v, hop %d: split to (%v, %v)", want, hop, remote, err)
			}
			if remote.Error() != ErrRemote.Error()+": "+sent.Error() || !errors.Is(remote, ErrRemote) {
				t.Fatalf("%v, hop %d: remote error %q", want, hop, remote)
			}
			for _, s := range sentinels[1:] {
				if errors.Is(remote, s) != (s == want) {
					t.Fatalf("%v, hop %d: errors.Is(%v) = %v", want, hop, s, s != want)
				}
			}
			sent = remote
		}
	}
	if _, _, err := splitStatus(nil); err == nil {
		t.Fatal("empty status decoded")
	}
	if _, _, err := splitStatus([]byte{byte(len(statusErrs))}); err == nil {
		t.Fatal("unknown status code decoded")
	}
}
