package main

import (
	"bufio"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// durQuantile returns the q-quantile of ds (nearest rank), in the given
// unit.
func durQuantile(ds []time.Duration, q float64, unit time.Duration) float64 {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(q*float64(len(s)) + 0.5)
	i = min(max(i, 1), len(s)) - 1
	return float64(s[i]) / float64(unit)
}

// seconds converts durations to float seconds.
func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// runtimeDelta is what the Go runtime spent between two snapshots.
type runtimeDelta struct {
	allocMB   float64
	gcCycles  float64
	gcPauseMs float64
}

func (d runtimeDelta) plus(o runtimeDelta) runtimeDelta {
	return runtimeDelta{d.allocMB + o.allocMB, d.gcCycles + o.gcCycles, d.gcPauseMs + o.gcPauseMs}
}

func runtimeSince(before *runtime.MemStats) runtimeDelta {
	var now runtime.MemStats
	runtime.ReadMemStats(&now)
	return runtimeDelta{
		allocMB:   float64(now.TotalAlloc-before.TotalAlloc) / 1e6,
		gcCycles:  float64(now.NumGC - before.NumGC),
		gcPauseMs: float64(now.PauseTotalNs-before.PauseTotalNs) / 1e6,
	}
}

func memStats() *runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return &m
}

// peakRSSMB reads the process's peak resident set size from
// /proc/self/status, falling back to the Go runtime's own footprint
// where that file does not exist.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	return float64(memStats().Sys) / (1 << 20)
}
