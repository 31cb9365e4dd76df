package store

import (
	"bytes"
	"errors"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/clock"
	"repro/internal/workload"
)

func TestNewDatasetValidation(t *testing.T) {
	if _, err := NewDataset(0); !errors.Is(err, ErrBadConfig) {
		t.Fatal("want ErrBadConfig for empty dataset")
	}
	if _, err := NewDataset(10, WithPareto(0, 0)); !errors.Is(err, ErrBadConfig) {
		t.Fatal("want ErrBadConfig for zero scale")
	}
	if _, err := NewDataset(10, WithSizeBounds(10, 5)); !errors.Is(err, ErrBadConfig) {
		t.Fatal("want ErrBadConfig for inverted bounds")
	}
}

func TestRankOf(t *testing.T) {
	d, err := NewDataset(1000)
	if err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		key     string
		want    uint64
		wantErr bool
	}{
		{key: "k0000000000", want: 0},
		{key: "k0000000999", want: 999},
		{key: "k0000001000", wantErr: true}, // out of range
		{key: "x0000000001", wantErr: true}, // bad prefix
		{key: "k", wantErr: true},
		{key: "kabc", wantErr: true},
		{key: "", wantErr: true},
	}
	for _, tt := range tests {
		got, err := d.RankOf(tt.key)
		if tt.wantErr {
			if !errors.Is(err, ErrUnknownKey) {
				t.Errorf("RankOf(%q) err = %v, want ErrUnknownKey", tt.key, err)
			}
			continue
		}
		if err != nil || got != tt.want {
			t.Errorf("RankOf(%q) = %d, %v; want %d", tt.key, got, err, tt.want)
		}
	}
}

func TestRankOfRoundTrip(t *testing.T) {
	d, err := NewDataset(1 << 30)
	if err != nil {
		t.Fatal(err)
	}
	f := func(rank uint64) bool {
		rank %= 1 << 30
		got, err := d.RankOf(workload.KeyName(rank))
		return err == nil && got == rank
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestValueDeterministic(t *testing.T) {
	d, err := NewDataset(100)
	if err != nil {
		t.Fatal(err)
	}
	a, err := d.Value("k0000000042")
	if err != nil {
		t.Fatal(err)
	}
	b, err := d.Value("k0000000042")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("value not deterministic")
	}
	if len(a) != d.SizeOf(42) {
		t.Fatalf("value length %d, want SizeOf = %d", len(a), d.SizeOf(42))
	}
	c, err := d.Value("k0000000043")
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a, c) && len(a) == len(c) {
		t.Fatal("adjacent ranks produced identical values")
	}
}

func TestValueUnknownKey(t *testing.T) {
	d, err := NewDataset(10)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Value("k0000000099"); !errors.Is(err, ErrUnknownKey) {
		t.Fatalf("err = %v, want ErrUnknownKey", err)
	}
}

func TestTotalBytesScale(t *testing.T) {
	d, err := NewDataset(1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	// Mean size ≈ 329 bytes (clamped tail shrinks it); expect the sampled
	// footprint within a loose band around mean × n.
	var sum, count int64
	for rank := uint64(0); rank < 1_000_000; rank += 1_000_000 / 4096 {
		sum += int64(d.SizeOf(rank))
		count++
	}
	if total := sum / count * 1_000_000; total < 100_000_000 || total > 500_000_000 {
		t.Fatalf("footprint %d B, outside plausible band", total)
	}
}

func TestLatencyModelValidate(t *testing.T) {
	good := LatencyModel{Base: time.Millisecond, Capacity: 40000, Max: 2 * time.Second}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []LatencyModel{
		{Base: 0, Capacity: 1, Max: time.Second},
		{Base: time.Millisecond, Capacity: 0, Max: time.Second},
		{Base: time.Second, Capacity: 1, Max: time.Millisecond},
	}
	for i, m := range bad {
		if err := m.Validate(); !errors.Is(err, ErrBadConfig) {
			t.Errorf("model %d: err = %v, want ErrBadConfig", i, err)
		}
	}
}

func TestLatencyModelKnee(t *testing.T) {
	m := LatencyModel{Base: time.Millisecond, Capacity: 40000, Max: 2 * time.Second}
	idle := m.LatencyAt(0)
	if idle != time.Millisecond {
		t.Fatalf("idle latency %v, want base", idle)
	}
	half := m.LatencyAt(20000)
	if half < time.Millisecond || half > 3*time.Millisecond {
		t.Fatalf("latency at 50%% load = %v, want ~2x base", half)
	}
	near := m.LatencyAt(39500)
	if near < 50*time.Millisecond {
		t.Fatalf("latency near capacity = %v, want sharp rise", near)
	}
	over := m.LatencyAt(50000)
	if over != 2*time.Second {
		t.Fatalf("saturated latency = %v, want clamp at max", over)
	}
	// Monotonicity across the range.
	prev := time.Duration(0)
	for rate := 0.0; rate <= 60000; rate += 500 {
		lat := m.LatencyAt(rate)
		if lat < prev {
			t.Fatalf("latency not monotone at rate %v", rate)
		}
		prev = lat
	}
}

func newTestDB(t *testing.T, capacity float64) (*DB, *clock.Fake) {
	t.Helper()
	d, err := NewDataset(10000)
	if err != nil {
		t.Fatal(err)
	}
	clk := clock.NewFake(time.Unix(1_700_000_000, 0), 0)
	db, err := NewDB(d, LatencyModel{
		Base:     time.Millisecond,
		Capacity: capacity,
		Max:      2 * time.Second,
	}, WithClock(clk.Now))
	if err != nil {
		t.Fatal(err)
	}
	return db, clk
}

func TestNewDBValidation(t *testing.T) {
	if _, err := NewDB(nil, LatencyModel{Base: 1, Capacity: 1, Max: 1}); !errors.Is(err, ErrBadConfig) {
		t.Fatal("want ErrBadConfig for nil dataset")
	}
	d, err := NewDataset(10)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewDB(d, LatencyModel{}); !errors.Is(err, ErrBadConfig) {
		t.Fatal("want ErrBadConfig for zero model")
	}
}

func TestDBGetLowLoad(t *testing.T) {
	db, clk := newTestDB(t, 40000)
	var lastLat time.Duration
	for i := 0; i < 10; i++ {
		clk.Advance(100 * time.Millisecond) // 10 req/s
		_, lat, err := db.Get("k0000000001")
		if err != nil {
			t.Fatal(err)
		}
		lastLat = lat
	}
	if lastLat > 2*time.Millisecond {
		t.Fatalf("low-load latency %v, want near base", lastLat)
	}
	if db.Rate() != 10 {
		t.Fatalf("Rate = %v, want the 10 reads of the last second", db.Rate())
	}
}

func TestDBGetSaturates(t *testing.T) {
	db, clk := newTestDB(t, 100) // tiny capacity
	var lat time.Duration
	for i := 0; i < 500; i++ {
		clk.Advance(time.Millisecond) // 1000 req/s >> capacity 100
		_, l, err := db.Get("k0000000001")
		if err != nil {
			t.Fatal(err)
		}
		lat = l
	}
	if lat != 2*time.Second {
		t.Fatalf("overloaded latency %v, want max clamp", lat)
	}
	if db.Rate() < 100 {
		t.Fatalf("rate estimate %v too low", db.Rate())
	}
}

func TestDBRateWindowDecays(t *testing.T) {
	db, clk := newTestDB(t, 40000)
	for i := 0; i < 100; i++ {
		clk.Advance(time.Millisecond)
		if _, _, err := db.Get("k0000000001"); err != nil {
			t.Fatal(err)
		}
	}
	burst := db.Rate()
	if burst < 90 {
		t.Fatalf("burst rate %v, want ≈100 arrivals in window", burst)
	}
	// After 2 idle seconds the window must have rolled off.
	clk.Advance(2 * time.Second)
	_, _, err := db.Get("k0000000001")
	if err != nil {
		t.Fatal(err)
	}
	if after := db.Rate(); after > 5 {
		t.Fatalf("stale window: rate %v after idle gap", after)
	}
}

func TestDBGetUnknownKey(t *testing.T) {
	db, _ := newTestDB(t, 40000)
	if _, _, err := db.Get("bogus"); !errors.Is(err, ErrUnknownKey) {
		t.Fatalf("err = %v, want ErrUnknownKey", err)
	}
}

func TestDBCapacityAndDataset(t *testing.T) {
	db, _ := newTestDB(t, 40000)
	if db.model.Capacity != 40000 {
		t.Fatalf("Capacity = %v, want 40000", db.model.Capacity)
	}
	if db.Dataset().n != 10000 {
		t.Fatalf("dataset len = %d, want 10000", db.Dataset().n)
	}
}

func TestDBConcurrentGets(t *testing.T) {
	db, _ := newTestDB(t, 40000)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if _, _, err := db.Get("k0000000005"); err != nil {
					t.Errorf("Get: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if db.Rate() != 1600 { // the clock stands still: every read is in the window
		t.Fatalf("Rate = %v, want 1600", db.Rate())
	}
}
