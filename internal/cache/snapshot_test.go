package cache

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/clock"
)

// stateFingerprint renders a cache's full observable state — every class's
// MRU-ordered dump with values, flags, timestamps, and expiries — into one
// comparable string. Two caches with equal fingerprints serve identically.
func stateFingerprint(t *testing.T, c *Cache) string {
	t.Helper()
	var buf bytes.Buffer
	for _, classID := range c.PopulatedClasses() {
		metas, err := c.DumpClass(classID, nil)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&buf, "class %d\n", classID)
		for _, m := range metas {
			v, flags, expiry, ok := c.PeekFull(m.Key)
			if !ok {
				t.Fatalf("dumped key %q not peekable", m.Key)
			}
			fmt.Fprintf(&buf, "%s %x flags=%d access=%d expire=%d\n",
				m.Key, v, flags, m.LastAccess.UnixNano(), toNano(expiry))
		}
	}
	return buf.String()
}

// liveCount sums the unexpired items across all populated classes.
func liveCount(t *testing.T, c *Cache) int {
	t.Helper()
	n := 0
	for _, classID := range c.PopulatedClasses() {
		metas, err := c.DumpClass(classID, nil)
		if err != nil {
			t.Fatal(err)
		}
		n += len(metas)
	}
	return n
}

// populateSeeded fills a cache with a seeded op mix: sets with flags and a
// TTL tail, overwrites, deletes, and touch-gets that shuffle MRU order.
func populateSeeded(t *testing.T, c *Cache, clk *clock.Fake, seed int64, ops int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < ops; i++ {
		key := "snap-" + strconv.Itoa(rng.Intn(ops/2+1))
		switch op := rng.Intn(10); {
		case op < 6: // set
			val := make([]byte, 1+rng.Intn(400))
			rng.Read(val)
			var expire time.Time
			if rng.Intn(5) == 0 {
				expire = clk.Now().Add(time.Duration(1+rng.Intn(120)) * time.Second)
			}
			if err := c.SetBytes([]byte(key), val, uint32(rng.Uint32()), expire); err != nil {
				t.Fatalf("set %q: %v", key, err)
			}
		case op < 8: // get re-hoists MRU position
			_, _ = c.Get(key)
		default:
			_ = c.Delete(key)
		}
		if rng.Intn(50) == 0 {
			clk.Advance(time.Second)
		}
	}
}

func TestSnapshotRoundTripDifferential(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			clk := clock.NewFake(testEpoch, 0)
			src, err := New(64*PageSize, WithClock(clk.Now), WithShards(4))
			if err != nil {
				t.Fatal(err)
			}
			populateSeeded(t, src, clk, seed, 3000)

			var buf bytes.Buffer
			wrote, err := src.WriteSnapshot(&buf)
			if err != nil {
				t.Fatalf("write: %v", err)
			}
			// Len counts resident items including not-yet-crawled expired
			// ones; the snapshot holds exactly the live subset.
			if live := liveCount(t, src); wrote != live {
				t.Fatalf("wrote %d pairs, cache holds %d live items", wrote, live)
			}

			dst, err := New(64*PageSize, WithClock(clk.Now), WithShards(4))
			if err != nil {
				t.Fatal(err)
			}
			restored, err := dst.RestoreSnapshot(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatalf("restore: %v", err)
			}
			if restored != wrote {
				t.Fatalf("restored %d of %d pairs", restored, wrote)
			}

			want, got := stateFingerprint(t, src), stateFingerprint(t, dst)
			if want != got {
				t.Fatalf("state diverged after round trip:\nsource:\n%s\nrestored:\n%s", want, got)
			}
		})
	}
}

// TestSnapshotMRUOrderPreserved drives a known access sequence and checks
// the restored cache reproduces the source's structural MRU list order per
// shard — not just the timestamp-sorted dump, which would mask inversions.
func TestSnapshotMRUOrderPreserved(t *testing.T) {
	clk := clock.NewFake(testEpoch, 0)
	src, err := New(8*PageSize, WithClock(clk.Now), WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if err := src.Set("mru-"+strconv.Itoa(i), []byte("v"+strconv.Itoa(i))); err != nil {
			t.Fatal(err)
		}
		clk.Advance(time.Millisecond)
	}
	// Re-touch a scattered subset so list order differs from insert order.
	for i := 0; i < 200; i += 7 {
		if _, err := src.Get("mru-" + strconv.Itoa(i)); err != nil {
			t.Fatal(err)
		}
		clk.Advance(time.Millisecond)
	}

	var buf bytes.Buffer
	if _, err := src.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	dst, err := New(8*PageSize, WithClock(clk.Now), WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dst.RestoreSnapshot(&buf); err != nil {
		t.Fatal(err)
	}

	for _, classID := range src.PopulatedClasses() {
		wantRuns, err := src.ClassOrderByShard(classID)
		if err != nil {
			t.Fatal(err)
		}
		gotRuns, err := dst.ClassOrderByShard(classID)
		if err != nil {
			t.Fatal(err)
		}
		if len(wantRuns) != len(gotRuns) {
			t.Fatalf("class %d: shard count %d vs %d", classID, len(wantRuns), len(gotRuns))
		}
		for si := range wantRuns {
			if len(wantRuns[si]) != len(gotRuns[si]) {
				t.Fatalf("class %d shard %d: %d vs %d items", classID, si, len(wantRuns[si]), len(gotRuns[si]))
			}
			for i := range wantRuns[si] {
				if wantRuns[si][i].Key != gotRuns[si][i].Key {
					t.Fatalf("class %d shard %d position %d: %q vs %q",
						classID, si, i, wantRuns[si][i].Key, gotRuns[si][i].Key)
				}
			}
		}
	}
}

// TestSnapshotExcludesExpired: items past their deadline at dump time must
// not be written, and TTLs of live items must survive the round trip.
func TestSnapshotExcludesExpired(t *testing.T) {
	clk := clock.NewFake(testEpoch, 0)
	src, err := New(4*PageSize, WithClock(clk.Now))
	if err != nil {
		t.Fatal(err)
	}
	if err := src.SetBytes([]byte("dead"), []byte("x"), 0, clk.Now().Add(time.Second)); err != nil {
		t.Fatal(err)
	}
	if err := src.SetBytes([]byte("live-ttl"), []byte("y"), 0, clk.Now().Add(time.Hour)); err != nil {
		t.Fatal(err)
	}
	if err := src.Set("live-forever", []byte("z")); err != nil {
		t.Fatal(err)
	}
	clk.Advance(2 * time.Second) // "dead" is now expired but still resident

	var buf bytes.Buffer
	wrote, err := src.WriteSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if wrote != 2 {
		t.Fatalf("wrote %d pairs, want 2 (expired item must be excluded)", wrote)
	}

	dst, err := New(4*PageSize, WithClock(clk.Now))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dst.RestoreSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := dst.Get("dead"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("expired item restored: err=%v", err)
	}
	if v, err := dst.Get("live-ttl"); err != nil || string(v) != "y" {
		t.Fatalf("live-ttl: %q, %v", v, err)
	}
	// The restored TTL must still fire.
	clk.Advance(2 * time.Hour)
	if _, err := dst.Get("live-ttl"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("restored TTL did not fire: err=%v", err)
	}
	if v, err := dst.Get("live-forever"); err != nil || string(v) != "z" {
		t.Fatalf("live-forever: %q, %v", v, err)
	}
}

// TestSnapshotCorruptRestoresCold sweeps truncations and bit flips over a
// valid snapshot: every damaged variant must restore to an error wrapping
// ErrSnapshotCorrupt, leave the cache empty, and keep it fully usable —
// never panic, never half-populate.
func TestSnapshotCorruptRestoresCold(t *testing.T) {
	clk := clock.NewFake(testEpoch, 0)
	src, err := New(32*PageSize, WithClock(clk.Now), WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	populateSeeded(t, src, clk, 99, 800)
	var buf bytes.Buffer
	if _, err := src.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	restoreDamaged := func(t *testing.T, data []byte) {
		t.Helper()
		dst, err := New(32*PageSize, WithClock(clk.Now), WithShards(2))
		if err != nil {
			t.Fatal(err)
		}
		n, rerr := dst.RestoreSnapshot(bytes.NewReader(data))
		if rerr == nil {
			t.Fatal("damaged snapshot restored without error")
		}
		if !errors.Is(rerr, ErrSnapshotCorrupt) {
			t.Fatalf("error does not wrap ErrSnapshotCorrupt: %v", rerr)
		}
		if n != 0 || dst.Len() != 0 {
			t.Fatalf("cache not cold after corrupt restore: n=%d len=%d", n, dst.Len())
		}
		// The cache must remain serviceable.
		if err := dst.Set("after", []byte("ok")); err != nil {
			t.Fatalf("cache unusable after corrupt restore: %v", err)
		}
		if v, err := dst.Get("after"); err != nil || string(v) != "ok" {
			t.Fatalf("cache unusable after corrupt restore: %q, %v", v, err)
		}
	}

	t.Run("truncated", func(t *testing.T) {
		rng := rand.New(rand.NewSource(7))
		cuts := []int{0, 1, 4, 5, len(good) / 3, len(good) / 2, len(good) - 5, len(good) - 1}
		for i := 0; i < 8; i++ {
			cuts = append(cuts, rng.Intn(len(good)))
		}
		for _, cut := range cuts {
			restoreDamaged(t, good[:cut])
		}
	})

	t.Run("bitflip", func(t *testing.T) {
		rng := rand.New(rand.NewSource(8))
		for i := 0; i < 16; i++ {
			damaged := append([]byte(nil), good...)
			pos := rng.Intn(len(damaged))
			damaged[pos] ^= 1 << uint(rng.Intn(8))
			restoreDamaged(t, damaged)
		}
	})

	t.Run("garbage", func(t *testing.T) {
		restoreDamaged(t, []byte("definitely not a snapshot file, much longer than a header"))
	})
}

// TestSnapshotFileRoundTrip covers the atomic file wrappers: tmp+rename
// write, restore-then-remove, and the missing-file cold start.
func TestSnapshotFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	clk := clock.NewFake(testEpoch, 0)
	src, err := New(32*PageSize, WithClock(clk.Now), WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	populateSeeded(t, src, clk, 3, 500)

	wrote, err := src.WriteSnapshotFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	if live := liveCount(t, src); wrote != live {
		t.Fatalf("wrote %d, cache holds %d live items", wrote, live)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != SnapshotFileName {
		t.Fatalf("snapshot dir contents: %v (want only %s — temp file must be cleaned up)", entries, SnapshotFileName)
	}

	dst, err := New(32*PageSize, WithClock(clk.Now), WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	restored, err := dst.RestoreSnapshotFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	if restored != wrote {
		t.Fatalf("restored %d of %d", restored, wrote)
	}
	if want, got := stateFingerprint(t, src), stateFingerprint(t, dst); want != got {
		t.Fatal("state diverged through file round trip")
	}
	// Consumed snapshots must be removed so a later crash-restart cannot
	// resurrect stale values.
	if _, err := os.Stat(filepath.Join(dir, SnapshotFileName)); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("snapshot file still present after restore: %v", err)
	}

	// Second restore: the normal cold start.
	cold, err := New(32*PageSize, WithClock(clk.Now), WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cold.RestoreSnapshotFile(dir); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("missing snapshot should report fs.ErrNotExist, got %v", err)
	}
	if cold.Len() != 0 {
		t.Fatal("cold start not empty")
	}
}

// TestSnapshotRestoreSmallerBudget: restoring into a cache with a smaller
// memory budget must keep the hottest items and drop only the coldest —
// the warm restart equivalent of FuseCache's hot-data preference.
func TestSnapshotRestoreSmallerBudget(t *testing.T) {
	clk := clock.NewFake(testEpoch, 0)
	src, err := New(32*PageSize, WithClock(clk.Now), WithShards(1))
	if err != nil {
		t.Fatal(err)
	}
	// ~3 pages of one class: 3000 items x ~1 KiB chunks.
	val := make([]byte, 900)
	for i := 0; i < 3000; i++ {
		if err := src.Set(fmt.Sprintf("budget-%04d", i), val); err != nil {
			t.Fatal(err)
		}
		clk.Advance(time.Millisecond)
	}

	var buf bytes.Buffer
	if _, err := src.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	dst, err := New(2*PageSize, WithClock(clk.Now), WithShards(1))
	if err != nil {
		t.Fatal(err)
	}
	restored, err := dst.RestoreSnapshot(&buf)
	if err != nil {
		t.Fatalf("restore into smaller budget must degrade, not fail: %v", err)
	}
	// Import evicts the coldest already-restored items to admit hotter
	// ones, so the processed count stays full while residency shrinks.
	if restored == 0 {
		t.Fatal("restore into smaller budget imported nothing")
	}
	if kept := dst.Len(); kept == 0 || kept >= 3000 {
		t.Fatalf("smaller-budget cache retains %d of 3000 items, want a strict subset", kept)
	}
	// The hottest (latest-set) items must have survived.
	for i := 2999; i > 2999-100; i-- {
		if _, err := dst.Get(fmt.Sprintf("budget-%04d", i)); err != nil {
			t.Fatalf("hot item budget-%04d lost in smaller-budget restore: %v", i, err)
		}
	}
}

// buildSnapshot frames pairs as one class of a well-formed snapshot, with
// a valid trailer and checksum, so seeds can carry records that only the
// record decoder — not the CRC — must reject.
func buildSnapshot(pairs []KV) []byte {
	b := append(snapshotMagic[:], snapshotVersion)
	b = binary.AppendUvarint(b, 1) // class 0
	b = binary.AppendUvarint(b, uint64(len(pairs)))
	for i := range pairs {
		b = AppendPair(b, &pairs[i])
	}
	b = binary.AppendUvarint(b, 0) // class end
	b = binary.AppendUvarint(b, 0) // classes end
	b = binary.BigEndian.AppendUint64(b, uint64(len(pairs)))
	return binary.BigEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
}

// decodeSnapshotPairs is an independent reading of the snapshot layout,
// stopping at the first malformed record and ignoring the checksum: every
// pair a successful restore can have imported, by key.
func decodeSnapshotPairs(b []byte) (map[string][]KV, int) {
	out := map[string][]KV{}
	total := 0
	if len(b) < 5 {
		return out, 0
	}
	b = b[5:]
	next := func() (uint64, bool) {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return 0, false
		}
		b = b[n:]
		return v, true
	}
	for {
		if mark, ok := next(); !ok || mark == 0 {
			return out, total
		}
		for {
			count, ok := next()
			if !ok {
				return out, total
			}
			if count == 0 {
				break
			}
			for ; count > 0; count-- {
				p, rest, err := DecodePair(b)
				if err != nil {
					return out, total
				}
				b = rest
				out[p.Key] = append(out[p.Key], p)
				total++
			}
		}
	}
}

// TestSnapshotKeyLengthCap: a well-formed snapshot whose key fills the
// chunk header's 16-bit length field restores; one byte longer is refused
// by the snapshot reader rather than stored with a wrapped length (which
// left a key-less item). TestKeyLengthCapOnEveryStorePath covers the
// store paths, BatchImport included.
func TestSnapshotKeyLengthCap(t *testing.T) {
	for _, tc := range []struct {
		keyLen int
		ok     bool
	}{{maxKeyLen, true}, {maxKeyLen + 1, false}} {
		c, err := New(8*PageSize, WithShards(1))
		if err != nil {
			t.Fatal(err)
		}
		key := strings.Repeat("K", tc.keyLen)
		snap := buildSnapshot([]KV{{Key: key, Value: []byte("v"), LastAccess: time.Unix(1_700_000_000, 0)}})
		n, err := c.RestoreSnapshot(bytes.NewReader(snap))
		if !tc.ok {
			if !errors.Is(err, ErrSnapshotCorrupt) || c.Len() != 0 {
				t.Fatalf("%d-byte key: restored n=%d len=%d err=%v, want a corrupt-snapshot refusal", tc.keyLen, n, c.Len(), err)
			}
			continue
		}
		if err != nil || n != 1 {
			t.Fatalf("%d-byte key: n=%d err=%v", tc.keyLen, n, err)
		}
		if v, ok := c.Peek(key); !ok || string(v) != "v" {
			t.Fatalf("%d-byte key not readable after restore", tc.keyLen)
		}
	}
}

// FuzzRestoreSnapshot feeds arbitrary bytes to the snapshot reader, which
// writes decoded pairs straight into the arena. It must never panic;
// either it fails and leaves the cache empty, or every resident item is
// byte-for-byte one of the pairs the file decodes to — and the arena never
// holds more pages than the budget.
func FuzzRestoreSnapshot(f *testing.F) {
	now := testEpoch
	src, err := New(32*PageSize, WithClock(clock.NewFake(now, 0).Now), WithShards(2))
	if err != nil {
		f.Fatal(err)
	}
	// Few, small items across three classes: the fuzzer's minimizer is
	// quadratic in input length, so a large seed stalls it for seconds.
	for i := 0; i < 6; i++ {
		expire := time.Time{}
		if i%3 == 0 {
			expire = now.Add(time.Hour)
		}
		if err := src.SetBytes([]byte("s"+strconv.Itoa(i)), bytes.Repeat([]byte{byte(i)}, 1+i*i*4), uint32(i), expire); err != nil {
			f.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if _, err := src.WriteSnapshot(&buf); err != nil {
		f.Fatal(err)
	}
	good := buf.Bytes()
	f.Add(good)
	for _, cut := range []int{0, 5, 6, len(good) / 2, len(good) - 4, len(good) - 1} {
		f.Add(good[:cut])
	}
	for _, pos := range []int{5, 7, len(good) / 3, len(good) - 2} {
		flipped := append([]byte(nil), good...)
		flipped[pos] ^= 0x40
		f.Add(flipped)
	}
	f.Add(buildSnapshot([]KV{{Key: "k", Value: []byte("v"), LastAccess: now}}))
	// Oversized length prefixes — a key one past the chunk header's 16-bit
	// length field, a value claiming a terabyte, a batch claiming 2^64
	// pairs. These stay short too (full-length keys are
	// TestSnapshotKeyLengthCap's job).
	hdr := append(snapshotMagic[:], snapshotVersion, 1, 1)
	f.Add(binary.AppendUvarint(bytes.Clone(hdr), maxKeyLen+1))
	f.Add(binary.AppendUvarint(append(bytes.Clone(hdr), 1, 'k'), 1<<40))
	f.Add(binary.AppendUvarint(append(snapshotMagic[:], snapshotVersion, 1), math.MaxUint64))

	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := New(8*PageSize, WithShards(2))
		if err != nil {
			t.Fatal(err)
		}
		n, rerr := c.RestoreSnapshot(bytes.NewReader(data))
		st := c.Stats()
		if st.AssignedPages > st.MaxPages || st.ArenaTouchedBytes > st.ArenaBytes {
			t.Fatalf("arena over budget: %d/%d pages, %d touched of %d bytes",
				st.AssignedPages, st.MaxPages, st.ArenaTouchedBytes, st.ArenaBytes)
		}
		if rerr != nil {
			if !errors.Is(rerr, ErrSnapshotCorrupt) || n != 0 || c.Len() != 0 {
				t.Fatalf("failed restore left n=%d len=%d (err %v)", n, c.Len(), rerr)
			}
			return
		}
		decoded, total := decodeSnapshotPairs(data)
		if n > total || c.Len() > n {
			t.Fatalf("restored %d pairs, %d resident, from %d decoded", n, c.Len(), total)
		}
		for _, classID := range c.PopulatedClasses() {
			metas, err := c.DumpClass(classID, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range metas {
				versions, ok := decoded[m.Key]
				if !ok {
					t.Fatalf("resident key %q (%d bytes) was never in the file", m.Key, len(m.Key))
				}
				v, flags, expiry, live := c.PeekFull(m.Key)
				if !live {
					continue // expired between the dump and the peek
				}
				match := false
				for _, p := range versions {
					match = match || (bytes.Equal(p.Value, v) && p.Flags == flags &&
						toNano(p.Expiry) == toNano(expiry) && toNano(p.LastAccess) == toNano(m.LastAccess))
				}
				if !match {
					t.Fatalf("resident %q = %q flags=%d is none of its %d decoded versions", m.Key, v, flags, len(versions))
				}
			}
		}
	})
}

// TestWriteSnapshotAllocsPerPair is the snapshot writer's allocation gate:
// streaming a 100 000-item class costs a fixed handful of allocations per
// class and per 512-pair batch, not one per pair. The writer reads values
// into reused buffers and the keys of a batch into one shared buffer.
func TestWriteSnapshotAllocsPerPair(t *testing.T) {
	const items = 100_000
	c, err := New(32<<20, WithShards(8))
	if err != nil {
		t.Fatal(err)
	}
	val := make([]byte, 100)
	for i := 0; i < items; i++ {
		if err := c.Set(fmt.Sprintf("snap-key-%06d", i), val); err != nil {
			t.Fatal(err)
		}
	}
	if c.Len() != items {
		t.Fatalf("cache holds %d items, want %d", c.Len(), items)
	}
	var n int
	allocs := testing.AllocsPerRun(3, func() {
		if n, err = c.WriteSnapshot(io.Discard); err != nil {
			t.Fatal(err)
		}
	})
	perPair := allocs / float64(n)
	t.Logf("%d pairs: %.0f allocs, %.4f allocs/pair", n, allocs, perPair)
	if n != items || perPair > 0.05 {
		t.Fatalf("%d pairs at %.4f allocs/pair, want %d at <= 0.05", n, perPair, items)
	}
}
