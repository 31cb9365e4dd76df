package main

import (
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
)

// quantile returns the q-quantile (0..1) of an ascending-sorted slice by
// nearest rank; 0 for an empty slice.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// median sorts a copy of xs and returns its middle value (mean of the two
// middle values for an even count); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// quartiles mirrors Python's statistics.quantiles(xs, n=4) (the exclusive
// method the acceptance driver uses), so -compare and -repeat judge spread
// the way the driver does. It needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		v := median(s)
		return v, v, v
	}
	at := func(k int) float64 {
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		d := k*(n+1) - j*4
		return (s[j-1]*float64(4-d) + s[j]*float64(d)) / 4
	}
	return at(1), at(2), at(3)
}

// sortedUs converts nanosecond samples to ascending microseconds.
func sortedUs(ns []uint32) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v) / 1e3
	}
	sort.Float64s(out)
	return out
}

// procStatusKB reads one "<field>: <n> kB" line of /proc/self/status.
func procStatusKB(field string) (float64, bool) {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, false
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				return 0, false
			}
			v, err := strconv.ParseFloat(f[0], 64)
			return v, err == nil
		}
	}
	return 0, false
}

// peakRSSMB is the process high-water resident set (VmHWM).
func peakRSSMB() float64 {
	kb, _ := procStatusKB("VmHWM")
	return kb / 1024
}

// resetPeakRSS restarts the VmHWM high-water mark so that consecutive runs
// inside one process (-repeat) each report their own peak. Best effort:
// where the kernel refuses, later runs report the process-wide peak.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// ioSyscalls is syscr+syscw of /proc/self/io: read- and write-class system
// calls issued by the whole process (driver and servers together).
func ioSyscalls() (uint64, bool) {
	raw, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return 0, false
	}
	var total uint64
	found := 0
	for _, line := range strings.Split(string(raw), "\n") {
		for _, field := range []string{"syscr: ", "syscw: "} {
			if rest, ok := strings.CutPrefix(line, field); ok {
				v, err := strconv.ParseUint(strings.TrimSpace(rest), 10, 64)
				if err != nil {
					return 0, false
				}
				total += v
				found++
			}
		}
	}
	return total, found == 2
}

// cpuNanos is user+system CPU time consumed by the process so far.
func cpuNanos() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}
