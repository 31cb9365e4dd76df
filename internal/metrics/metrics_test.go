package metrics

import (
	"testing"
	"time"
)

func TestDurationQuantileExact(t *testing.T) {
	lat := []float64{0.01, 0.02, 0.03, 0.04, 0.05, 0.06, 0.07, 0.08, 0.09, 0.10}
	tests := []struct {
		p    float64
		want time.Duration
	}{
		{p: 0.95, want: 100 * time.Millisecond},
		{p: 0.5, want: 50 * time.Millisecond},
		{p: 0.05, want: 10 * time.Millisecond},
	}
	for _, tt := range tests {
		if got := durationQuantile(lat, tt.p); got != tt.want {
			t.Errorf("quantile(%v) = %v, want %v", tt.p, got, tt.want)
		}
	}
	if got := durationQuantile(nil, 0.95); got != 0 {
		t.Errorf("quantile of empty = %v, want 0", got)
	}
}

func TestSecondStatHitRate(t *testing.T) {
	tests := []struct {
		name string
		s    SecondStat
		want float64
	}{
		{name: "all hits", s: SecondStat{Hits: 10}, want: 1},
		{name: "all misses", s: SecondStat{Misses: 10}, want: 0},
		{name: "half", s: SecondStat{Hits: 5, Misses: 5}, want: 0.5},
		{name: "idle", s: SecondStat{}, want: 1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.s.HitRate(); got != tt.want {
				t.Fatalf("HitRate = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestRecorderSeries(t *testing.T) {
	start := time.Unix(1_700_000_000, 0)
	r := NewRecorder(start)
	r.RecordRequest(start.Add(100*time.Millisecond), 10*time.Millisecond, 9, 1)
	r.RecordRequest(start.Add(900*time.Millisecond), 20*time.Millisecond, 10, 0)
	r.RecordRequest(start.Add(2500*time.Millisecond), 500*time.Millisecond, 0, 10)

	series := r.Series()
	if len(series) != 3 {
		t.Fatalf("series length %d, want 3 (dense through last second)", len(series))
	}
	s0 := series[0]
	if s0.Requests != 2 || s0.Hits != 19 || s0.Misses != 1 {
		t.Fatalf("second 0 = %+v", s0)
	}
	if s0.P95 != 20*time.Millisecond {
		t.Fatalf("second 0 P95 = %v, want 20ms", s0.P95)
	}
	if s0.Mean != 15*time.Millisecond {
		t.Fatalf("second 0 Mean = %v, want 15ms", s0.Mean)
	}
	if series[1].Requests != 0 {
		t.Fatal("idle second 1 should be empty")
	}
	if series[2].P95 != 500*time.Millisecond {
		t.Fatalf("second 2 P95 = %v, want 500ms", series[2].P95)
	}
	if series[2].At != 2*time.Second {
		t.Fatalf("second 2 At = %v", series[2].At)
	}
}

func TestRecorderEmpty(t *testing.T) {
	r := NewRecorder(time.Unix(0, 0))
	if s := r.Series(); s != nil {
		t.Fatalf("empty recorder series = %v, want nil", s)
	}
}

func buildSeries(rts map[int]time.Duration, maxSec int) []SecondStat {
	out := make([]SecondStat, maxSec+1)
	for sec := 0; sec <= maxSec; sec++ {
		st := SecondStat{At: time.Duration(sec) * time.Second}
		if rt, ok := rts[sec]; ok {
			st.Requests = 100
			st.P95 = rt
		}
		out[sec] = st
	}
	return out
}

func TestAnalyzeDegradation(t *testing.T) {
	// Stable 10ms, spike to 500ms at t=60s decaying to 10ms by t=120s.
	rts := make(map[int]time.Duration)
	for sec := 0; sec <= 200; sec++ {
		switch {
		case sec < 60:
			rts[sec] = 10 * time.Millisecond
		case sec < 120:
			decay := time.Duration(120-sec) * 500 / 60
			rts[sec] = decay * time.Millisecond
		default:
			rts[sec] = 10 * time.Millisecond
		}
	}
	series := buildSeries(rts, 200)
	d := AnalyzeDegradation(series, 60*time.Second, 120*time.Second, 30*time.Millisecond)
	if d.PeakRT < 400*time.Millisecond {
		t.Fatalf("PeakRT = %v, want ≈500ms", d.PeakRT)
	}
	// RT crosses below 30ms around sec 117; restoration ≈ 57s after event.
	if d.RestorationTime < 50*time.Second || d.RestorationTime > 60*time.Second {
		t.Fatalf("RestorationTime = %v, want ≈57s", d.RestorationTime)
	}
	if d.MeanP95 <= 10*time.Millisecond {
		t.Fatalf("MeanP95 = %v, want elevated", d.MeanP95)
	}
	if d.Seconds == 0 {
		t.Fatal("no seconds analyzed")
	}
}

func TestAnalyzeDegradationIgnoresIdleSeconds(t *testing.T) {
	series := []SecondStat{
		{At: 0, Requests: 10, P95: time.Second},
		{At: time.Second}, // idle
		{At: 2 * time.Second, Requests: 10, P95: time.Second},
	}
	d := AnalyzeDegradation(series, 0, 10*time.Second, 100*time.Millisecond)
	if d.Seconds != 2 {
		t.Fatalf("Seconds = %d, want 2 (idle skipped)", d.Seconds)
	}
}

func TestReductionPercent(t *testing.T) {
	base := Degradation{MeanP95: 188 * time.Millisecond}
	mitigated := Degradation{MeanP95: 22 * time.Millisecond}
	got := ReductionPercent(base, mitigated)
	// The paper's SYS example: 188ms → 22ms ≈ 88%.
	if got < 87 || got > 89 {
		t.Fatalf("ReductionPercent = %.1f, want ≈88", got)
	}
	if ReductionPercent(Degradation{}, mitigated) != 0 {
		t.Fatal("zero baseline must yield 0")
	}
}
