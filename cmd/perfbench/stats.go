package main

import (
	"fmt"
	"sort"
	"syscall"
	"time"
)

// p95MinSamples is the smallest sample count for which the 95th
// percentile has at least ten samples beyond it.
const p95MinSamples = 200

// summary describes one set of item times, in milliseconds.
type summary struct {
	Samples int     `json:"samples"`
	P25     float64 `json:"p25_ms"`
	P50     float64 `json:"p50_ms"`
	P75     float64 `json:"p75_ms"`
	// P95 is omitted below p95MinSamples samples.
	P95 *float64 `json:"p95_ms,omitempty"`
}

func summarize(xs []float64) summary {
	s := sortedCopy(xs)
	out := summary{Samples: len(s), P25: quantile(s, 0.25), P50: quantile(s, 0.5), P75: quantile(s, 0.75)}
	if len(s) >= p95MinSamples {
		p := quantile(s, 0.95)
		out.P95 = &p
	}
	return out
}

// quantile returns the q-quantile of an ascending slice, interpolating
// linearly between the two closest ranks; 0 for an empty slice.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	if i+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(i)
	return sorted[i] + frac*(sorted[i+1]-sorted[i])
}

func median(xs []float64) float64 { return quantile(sortedCopy(xs), 0.5) }

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// cpuTime returns the CPU time the process has used so far, user and
// system, over all its threads. Unlike wall time it leaves out the time
// the process waited for a processor, including, on a kernel that
// accounts steal time, the time the hypervisor ran other guests.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err)) // fails only on a bad argument
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
