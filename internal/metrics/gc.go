package metrics

import (
	"runtime"
	rtmetrics "runtime/metrics"
)

// GC/heap observability for the arena-backed cache. The whole point of
// off-heap slab storage is that the collector's mark work and heap goal
// stop scaling with resident items; these numbers are how that claim is
// checked in production (stats / expvar) and in the benchmark ledger.
// The arena itself is not heap: HeapAllocBytes excludes it.

// GCSnapshot is one reading of the runtime's GC counters.
type GCSnapshot struct {
	// GCCPUSeconds and TotalCPUSeconds are cumulative CPU time spent in
	// the collector and overall, from runtime/metrics; their ratio (or the
	// delta ratio between two snapshots) is the GC CPU fraction.
	GCCPUSeconds    float64 `json:"gcCpuSeconds"`
	TotalCPUSeconds float64 `json:"totalCpuSeconds"`
	// GCCPUFraction is the program-lifetime GC CPU fraction as the runtime
	// itself reports it.
	GCCPUFraction float64 `json:"gcCpuFraction"`
	// PauseTotalNs is cumulative stop-the-world pause time.
	PauseTotalNs uint64 `json:"pauseTotalNs"`
	// NumGC is the number of completed GC cycles.
	NumGC uint32 `json:"numGC"`
	// HeapObjects is the number of live (or not-yet-swept) heap objects —
	// the direct measure of mark-phase work. A pointer-based cache holds
	// several objects per item; the arena engine holds a few per shard.
	HeapObjects uint64 `json:"heapObjects"`
	// HeapAllocBytes is the live heap size (the cache arena excluded).
	HeapAllocBytes uint64 `json:"heapAllocBytes"`
}

var gcSamples = []rtmetrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

// ReadGC takes a snapshot of the runtime's GC counters.
func ReadGC() GCSnapshot {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := GCSnapshot{
		GCCPUFraction:  ms.GCCPUFraction,
		PauseTotalNs:   ms.PauseTotalNs,
		NumGC:          ms.NumGC,
		HeapObjects:    ms.HeapObjects,
		HeapAllocBytes: ms.HeapAlloc,
	}
	samples := make([]rtmetrics.Sample, len(gcSamples))
	copy(samples, gcSamples)
	rtmetrics.Read(samples)
	if samples[0].Value.Kind() == rtmetrics.KindFloat64 {
		s.GCCPUSeconds = samples[0].Value.Float64()
	}
	if samples[1].Value.Kind() == rtmetrics.KindFloat64 {
		s.TotalCPUSeconds = samples[1].Value.Float64()
	}
	return s
}

// GCDelta summarizes GC activity between two snapshots (before, after).
type GCDelta struct {
	// CPUFraction is the share of CPU time the collector consumed over the
	// interval, from the runtime/metrics cpu classes. Zero when the
	// interval saw no CPU accounting (e.g. identical snapshots).
	CPUFraction float64 `json:"cpuFraction"`
	// PauseNs is stop-the-world pause time accumulated over the interval.
	PauseNs uint64 `json:"pauseNs"`
	// Cycles is the number of GC cycles completed over the interval.
	Cycles uint32 `json:"cycles"`
}

// Sub computes the GC activity between two snapshots.
func (after GCSnapshot) Sub(before GCSnapshot) GCDelta {
	d := GCDelta{
		PauseNs: after.PauseTotalNs - before.PauseTotalNs,
		Cycles:  after.NumGC - before.NumGC,
	}
	if dt := after.TotalCPUSeconds - before.TotalCPUSeconds; dt > 0 {
		d.CPUFraction = (after.GCCPUSeconds - before.GCCPUSeconds) / dt
	}
	return d
}
