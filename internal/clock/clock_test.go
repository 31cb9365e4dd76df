package clock

import (
	"testing"
	"time"
)

var start = time.Unix(1_700_000_000, 0)

// TestFake: each read moves the clock one tick, Advance keeps the ticks
// read so far, and Set restarts them at a later instant but never runs the
// clock back.
func TestFake(t *testing.T) {
	f := NewFake(start, time.Microsecond)
	f.Now()
	f.Advance(time.Second)
	later := start.Add(time.Minute)
	for _, step := range []struct {
		set  time.Time // zero: no Set before the read
		want time.Time
	}{
		{want: start.Add(time.Second + 2*time.Microsecond)},
		{set: start, want: start.Add(time.Second + 3*time.Microsecond)},
		{set: later, want: later.Add(time.Microsecond)},
		{set: start, want: later.Add(2 * time.Microsecond)},
	} {
		f.Set(step.set)
		if got := f.Now(); !got.Equal(step.want) {
			t.Fatalf("after Set(%v): read %v, want %v", step.set, got, step.want)
		}
	}
}

// TestMonotonicClockNonDecreasing: successive readings never go backwards
// and track real elapsed time (within scheduling slop).
func TestMonotonicClockNonDecreasing(t *testing.T) {
	clk := NewMonotonic(0)
	prev := clk()
	for i := 0; i < 10000; i++ {
		cur := clk()
		if cur.Before(prev) {
			t.Fatalf("clock went backwards: %v -> %v", prev, cur)
		}
		prev = cur
	}
	start := clk()
	time.Sleep(10 * time.Millisecond)
	if d := clk().Sub(start); d < 10*time.Millisecond {
		t.Fatalf("elapsed %v, want >= 10ms", d)
	}
	if ahead := NewMonotonic(time.Hour)(); ahead.Before(time.Now().Add(59 * time.Minute)) {
		t.Fatalf("an hour ahead reads %v", ahead)
	}
}
