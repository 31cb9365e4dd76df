package agentrpc

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/agent"
	"repro/internal/cache"
)

// FuzzDecodeFrame feeds arbitrary bytes to the frame reader and, when a
// frame comes out, to that frame type's payload decoder — everything the
// server runs on bytes straight off a socket. The contract:
//
//   - nothing panics, whatever the input;
//   - readFrame consumes exactly the header plus the declared payload, and
//     decoded values stay inside that payload (pairs alias it; an offer
//     never decodes more stamps than it has bytes);
//   - whatever decodes re-encodes to a frame that decodes to the same
//     fields (encode∘decode is the identity on valid inputs); a call or
//     reply body re-encodes to a fixed point;
//   - an error status re-encodes, as a relaying agent would send it on,
//     to the same code with the remote error's text.
//
// Run `go test -fuzz FuzzDecodeFrame ./internal/agentrpc` (or `make fuzz`)
// to explore beyond the seeds.
func FuzzDecodeFrame(f *testing.F) {
	frame := func(typ byte, payload []byte) []byte {
		var buf bytes.Buffer
		if err := writeFrame(bufio.NewWriter(&buf), typ, payload); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	ts := time.Unix(1_700_000_123, 456)
	batch := appendImportBatch(nil, "sender", 3, 11, []cache.KV{
		{Key: "alpha", Value: []byte("value-1"), Flags: 7, LastAccess: ts, Expiry: ts.Add(time.Hour)},
		{Key: "beta"},
	})
	f.Add(frame(ftImportOpen, appendImportOpen(nil, "node-a", 7, 0xDEADBEEF, 16)))
	f.Add(frame(ftOpenAck, appendOpenAck(nil, 42, nil)))
	f.Add(frame(ftOpenAck, appendOpenAck(nil, 0, errors.New("kaboom"))))
	f.Add(frame(ftBatchAck, appendBatchAck(nil, 9, 9, 128, nil)))
	f.Add(frame(ftBatchAck, appendBatchAck(nil, 3, 0, 0, errors.New("gap"))))
	for _, cut := range seedCuts(len(batch)) {
		// Truncations of the batch payload behind an honest header: the
		// payload decoder must notice. The last one is the intact frame.
		f.Add(frame(ftImportBatch, batch[:cut]))
	}
	var offers [][]byte
	for _, maxPayload := range []int{maxFramePayload, 64} {
		if err := offerFrames("sender", offerRound, offerFixture(), maxPayload, func(p []byte) error {
			offers = append(offers, append([]byte(nil), p...))
			return nil
		}); err != nil {
			f.Fatal(err)
		}
	}
	for _, cut := range seedCuts(len(offers[0])) {
		// Truncations of the one-frame offer, the last one intact.
		f.Add(frame(ftOfferMeta, offers[0][:cut]))
	}
	for _, p := range offers[1:4] {
		f.Add(frame(ftOfferMeta, p)) // frames of a split offer
	}
	f.Add(frame(ftOfferAck, appendStatus(nil, nil)))
	f.Add(frame(ftOfferAck, appendStatus(nil, errors.New("no sender"))))
	for _, raw := range corruptHeaders {
		f.Add(raw)
	}
	for _, req := range callSeeds {
		body, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame(ftCall, body))
	}
	rep := agent.ScoreReport{Node: "n1", Items: 3, Medians: map[int]int64{0: 7}}
	for _, resp := range []response{{Score: &rep}, {Takes: agent.Takes{"s": {0: 2}}}, {Stats: &agent.SendStats{Pairs: 4}}, {Released: 2}} {
		body, err := json.Marshal(resp)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame(ftReply, append(appendStatus(nil, nil), body...)))
	}
	for _, s := range statusErrs {
		if s != nil {
			f.Add(frame(ftReply, appendStatus(nil, fmt.Errorf("op: %w", s))))
		}
	}
	f.Add(frame(ftReply, appendStatus(nil, errors.New("other"))))

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		typ, payload, err := readFrame(r)
		if err != nil {
			return
		}
		defer putBuf(payload)
		if consumed := len(data) - r.Len(); consumed != frameHeaderLen+len(payload) {
			t.Fatalf("readFrame consumed %d bytes for a %d-byte payload", consumed, len(payload))
		}
		switch typ {
		case ftImportOpen:
			from, round, fp, window, err := decodeImportOpen(payload)
			if err != nil {
				return
			}
			from2, round2, fp2, window2, err := decodeImportOpen(appendImportOpen(nil, from, round, fp, window))
			if err != nil || from2 != from || round2 != round || fp2 != fp || window2 != window {
				t.Fatalf("importOpen round trip: (%q %d %d %d) → (%q %d %d %d, %v)",
					from, round, fp, window, from2, round2, fp2, window2, err)
			}
		case ftOpenAck:
			hw, remote, err := decodeOpenAck(payload)
			if err != nil {
				return
			}
			hw2, remote2, err := decodeOpenAck(appendOpenAck(nil, hw, remote))
			if err != nil || hw2 != hw {
				t.Fatalf("openAck round trip: %d → (%d, %v)", hw, hw2, err)
			}
			checkRelayed(t, remote, remote2)
		case ftBatchAck:
			seq, hw, imported, remote, err := decodeBatchAck(payload)
			if err != nil {
				return
			}
			seq2, hw2, imported2, remote2, err := decodeBatchAck(appendBatchAck(nil, seq, hw, imported, remote))
			if err != nil || seq2 != seq || hw2 != hw || imported2 != imported {
				t.Fatalf("batchAck round trip: (%d %d %d) → (%d %d %d, %v)",
					seq, hw, imported, seq2, hw2, imported2, err)
			}
			checkRelayed(t, remote, remote2)
		case ftImportBatch:
			from, round, seq, pairs, err := decodeImportBatch(payload)
			if err != nil {
				return
			}
			total := 0
			for _, p := range pairs {
				total += len(p.Key) + len(p.Value)
			}
			if total > len(payload) {
				t.Fatalf("decoded %d key+value bytes out of a %d-byte payload", total, len(payload))
			}
			from2, round2, seq2, pairs2, err := decodeImportBatch(appendImportBatch(nil, from, round, seq, pairs))
			if err != nil || from2 != from || round2 != round || seq2 != seq || !reflect.DeepEqual(pairs2, pairs) {
				t.Fatalf("importBatch round trip diverged (err %v):\n%+v\n%+v", err, pairs, pairs2)
			}
		case ftOfferMeta:
			var d offerDecoder
			if _, err := d.frame(payload); err != nil {
				return
			}
			stamps := 0
			for _, l := range d.lists {
				stamps += len(l)
			}
			if stamps > len(payload) {
				t.Fatalf("decoded %d stamps out of a %d-byte payload", stamps, len(payload))
			}
			// Re-encode whole and split small: both decode to the same offer.
			for _, maxPayload := range []int{maxFramePayload, len(d.from) + 74} {
				var d2 offerDecoder
				err := offerFrames(d.from, d.round, d.lists, maxPayload, func(p []byte) error {
					_, err := d2.frame(p)
					return err
				})
				if err != nil || d2.from != d.from || d2.round != d.round || !reflect.DeepEqual(d2.lists, d.lists) {
					t.Fatalf("offer round trip (cap %d) diverged (err %v):\n%v\n%v", maxPayload, err, d.lists, d2.lists)
				}
			}
		case ftOfferAck, ftReply:
			body, remote, err := splitStatus(payload)
			if err != nil {
				return
			}
			_, remote2, err := splitStatus(appendStatus(nil, remote))
			if err != nil {
				t.Fatalf("status round trip: %v", err)
			}
			checkRelayed(t, remote, remote2)
			var resp response
			if typ == ftReply && remote == nil && json.Unmarshal(body, &resp) == nil {
				checkFixedPoint(t, &resp, new(response))
			}
		case ftCall:
			var req request
			if json.Unmarshal(payload, &req) == nil {
				checkFixedPoint(t, &req, new(request))
			}
		}
	})
}

// seedCuts lists the points at which to cut an n-byte payload for seeds.
// A plain test run takes every cut, 0 through n, so each truncation is
// checked deterministically. A fuzzing run takes a few: the engine runs
// every seed for baseline coverage before it mutates, and every cut of the
// batch and the offer (~3.7k seeds) outlasts a short -fuzztime such as
// make fuzz FUZZTIME=5s.
func seedCuts(n int) []int {
	if fz := flag.Lookup("test.fuzz"); fz != nil && fz.Value.String() != "" {
		return []int{0, 1, n / 2, n - 1, n}
	}
	cuts := make([]int, n+1)
	for i := range cuts {
		cuts[i] = i
	}
	return cuts
}

// checkRelayed checks a decoded status against its re-encoding: success
// stays success, and an error keeps its code and carries the decoded
// error's text.
func checkRelayed(t *testing.T, remote, remote2 error) {
	t.Helper()
	if remote == nil || remote2 == nil {
		if remote != remote2 {
			t.Fatalf("status round trip: %v → %v", remote, remote2)
		}
		return
	}
	r, r2 := remote.(*remoteError), remote2.(*remoteError)
	if r2.code != r.code || r2.msg != r.Error() {
		t.Fatalf("status round trip: (%d %q) → (%d %q)", r.code, r.Error(), r2.code, r2.msg)
	}
}

// checkFixedPoint checks that v, decoded from a body, re-encodes to a body
// that decodes and encodes to itself.
func checkFixedPoint(t *testing.T, v, fresh any) {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("decoded body does not marshal: %v", err)
	}
	if err := json.Unmarshal(body, fresh); err != nil {
		t.Fatalf("re-encoded body %s does not decode: %v", body, err)
	}
	body2, err := json.Marshal(fresh)
	if err != nil || !bytes.Equal(body2, body) {
		t.Fatalf("body round trip: %s → %s, %v", body, body2, err)
	}
}

// callSeeds is a call of every op, and one of no op (also seeds
// FuzzDecodeFrame).
var callSeeds = []request{
	{Op: opScore},
	{Op: opSendMetadata, Round: 5, Retained: []string{"peer"}, TimeoutMS: 50},
	{Op: opComputeTakes, Round: 5},
	{Op: opSendData, Round: 5, Target: "peer", Takes: map[int]int{0: 3, 5: -1}},
	{Op: opRelease, Retained: []string{"node", "peer"}},
	{Op: "no_such_op"},
}

// FuzzDispatch feeds arbitrary call-frame bodies through the path the
// server runs on every call frame — dispatch's decode, then the op —
// against a small in-process agent holding a few items. The contract:
// nothing panics, every call comes back as a response or as an error,
// never both or neither, and a response marshals for the reply.
//
// Run `go test -fuzz FuzzDispatch ./internal/agentrpc` (or `make fuzz`) to
// explore beyond the seeds.
func FuzzDispatch(f *testing.F) {
	for _, req := range callSeeds {
		body, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	f.Add([]byte(`{"op":"release","retained":[]}`))
	f.Add([]byte(`{"op":"send_data","round":18446744073709551615,"takes":{"-7":9223372036854775807}}`))

	f.Fuzz(func(t *testing.T, body []byte) {
		c, err := cache.New(cache.PageSize)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 8; i++ {
			if err := c.Set(fmt.Sprintf("k%d", i), []byte("value")); err != nil {
				t.Fatal(err)
			}
		}
		reg := agent.NewRegistry()
		a, err := agent.New("node", c, reg)
		if err != nil {
			t.Fatal(err)
		}
		reg.Register(a)
		resp, err := (&Server{agent: a}).dispatch(body)
		if (resp == nil) == (err == nil) {
			t.Fatalf("call %q: response %+v with error %v", body, resp, err)
		}
		if _, err := json.Marshal(resp); err != nil {
			t.Fatalf("call %q: response does not marshal: %v", body, err)
		}
	})
}
