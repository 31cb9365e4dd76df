// Package metrics provides the measurement machinery the ElMem evaluation
// needs (Section V): per-second hit-rate and 95th-percentile response-time
// series and the derived post-scaling degradation statistics (peak RT,
// restoration time, average degraded RT) that Figures 2, 6, and 8 report.
package metrics

import (
	"math"
	"sort"
	"time"
)

// SecondStat is one second of the evaluation series: the per-second hit
// rate and 95%ile RT plotted in Figures 2, 6, and 8.
type SecondStat struct {
	// At is the second's offset from the recorder's start.
	At time.Duration
	// Hits and Misses count cache outcomes in the second.
	Hits   int
	Misses int
	// Requests counts web requests completed in the second.
	Requests int
	// P95 is the 95th-percentile response time of the second's requests.
	P95 time.Duration
	// Mean is the second's mean response time.
	Mean time.Duration
}

// HitRate returns the second's cache hit rate, or 1 when idle (an idle
// cache serves nothing, so it misses nothing; plotting 1 matches the
// paper's idle segments).
func (s SecondStat) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 1
	}
	return float64(s.Hits) / float64(total)
}

// Recorder accumulates per-second statistics from a stream of request
// completions under virtual or real time.
type Recorder struct {
	start   time.Time
	seconds map[int64]*bucket
}

type bucket struct {
	hits, misses int
	latencies    []float64 // seconds
}

// NewRecorder creates a recorder anchored at start.
func NewRecorder(start time.Time) *Recorder {
	return &Recorder{start: start, seconds: make(map[int64]*bucket)}
}

// RecordRequest records a completed web request at time at, with its
// response time and the number of cache hits/misses among its KV fetches.
func (r *Recorder) RecordRequest(at time.Time, rt time.Duration, hits, misses int) {
	sec := int64(at.Sub(r.start) / time.Second)
	b := r.seconds[sec]
	if b == nil {
		b = &bucket{}
		r.seconds[sec] = b
	}
	b.hits += hits
	b.misses += misses
	b.latencies = append(b.latencies, rt.Seconds())
}

// Series flattens the recorder into a dense per-second series from second
// 0 through the last recorded second. Idle seconds carry zero requests.
func (r *Recorder) Series() []SecondStat {
	if len(r.seconds) == 0 {
		return nil
	}
	var last int64
	for sec := range r.seconds {
		if sec > last {
			last = sec
		}
	}
	out := make([]SecondStat, last+1)
	for sec := int64(0); sec <= last; sec++ {
		st := SecondStat{At: time.Duration(sec) * time.Second}
		if b := r.seconds[sec]; b != nil {
			st.Hits = b.hits
			st.Misses = b.misses
			st.Requests = len(b.latencies)
			st.P95 = durationQuantile(b.latencies, 0.95)
			st.Mean = meanDuration(b.latencies)
		}
		out[sec] = st
	}
	return out
}

// durationQuantile computes an exact quantile of latencies (in seconds).
func durationQuantile(latencies []float64, p float64) time.Duration {
	if len(latencies) == 0 {
		return 0
	}
	tmp := make([]float64, len(latencies))
	copy(tmp, latencies)
	sort.Float64s(tmp)
	idx := int(math.Ceil(p*float64(len(tmp)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(tmp) {
		idx = len(tmp) - 1
	}
	return time.Duration(tmp[idx] * float64(time.Second))
}

func meanDuration(latencies []float64) time.Duration {
	if len(latencies) == 0 {
		return 0
	}
	sum := 0.0
	for _, l := range latencies {
		sum += l
	}
	return time.Duration(sum / float64(len(latencies)) * float64(time.Second))
}

// Degradation summarizes post-scaling performance loss over a series
// window, the paper's headline metrics (Section II-D, V-B1).
type Degradation struct {
	// PeakRT is the maximum per-second 95%ile RT after the scaling event.
	PeakRT time.Duration
	// RestorationTime is how long after the event the 95%ile RT stays
	// above the restore threshold (last crossing back under it).
	RestorationTime time.Duration
	// MeanP95 is the average of the per-second 95%ile RTs after the event
	// (the paper's "average of the 1-second 95%ile RTs").
	MeanP95 time.Duration
	// Seconds is the number of seconds with traffic in the window.
	Seconds int
}

// AnalyzeDegradation computes post-scaling degradation over series for the
// window [event, event+window], using threshold as the restored-RT bound.
func AnalyzeDegradation(series []SecondStat, event, window time.Duration, threshold time.Duration) Degradation {
	var out Degradation
	var lastAbove time.Duration
	for _, s := range series {
		if s.At < event || s.At > event+window || s.Requests == 0 {
			continue
		}
		out.Seconds++
		if s.P95 > out.PeakRT {
			out.PeakRT = s.P95
		}
		out.MeanP95 += s.P95
		if s.P95 > threshold {
			lastAbove = s.At - event
		}
	}
	if out.Seconds > 0 {
		out.MeanP95 /= time.Duration(out.Seconds)
	}
	out.RestorationTime = lastAbove
	return out
}

// ReductionPercent returns how much a mitigated degradation improves on a
// baseline, in percent of the baseline's mean post-scaling P95 — the
// "reduces post-scaling degradation by about 9x%" numbers of Section V-B1.
func ReductionPercent(baseline, mitigated Degradation) float64 {
	if baseline.MeanP95 <= 0 {
		return 0
	}
	red := 1 - float64(mitigated.MeanP95)/float64(baseline.MeanP95)
	return red * 100
}
