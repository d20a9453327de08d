package main

import (
	"time"

	"acclaim/internal/autotune"
	"acclaim/internal/benchmark"
	"acclaim/internal/obs"
)

// timedBackend wraps the live backend and times every collection call
// from outside the program: host time busy collecting and the number of
// benchmark specs collected.
type timedBackend struct {
	inner autotune.LiveBackend
	busy  time.Duration
	specs int
}

func (b *timedBackend) Measure(spec benchmark.Spec) (benchmark.Measurement, error) {
	t0 := time.Now()
	m, err := b.inner.Measure(spec)
	b.busy += time.Since(t0)
	b.specs++
	return m, err
}

func (b *timedBackend) MaxNodes() int { return b.inner.MaxNodes() }

func (b *timedBackend) MeasureWave(specs []benchmark.Spec) ([]benchmark.Measurement, float64, error) {
	t0 := time.Now()
	ms, wall, err := b.inner.MeasureWave(specs)
	b.busy += time.Since(t0)
	b.specs += len(specs)
	return ms, wall, err
}

// selfTimes sums each span name's self time: its duration minus the
// part of it that its child spans cover. Children of one span never
// overlap (the tuner and the benchmark record them sequentially), so the
// covered part is the sum of the children's durations.
func selfTimes(spans []obs.Span) map[string]time.Duration {
	child := make(map[obs.SpanID]int64, len(spans))
	for _, s := range spans {
		if s.Parent != obs.NoSpan {
			child[s.Parent] += s.EndNs - s.StartNs
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[s.Name] += time.Duration(s.EndNs - s.StartNs - child[s.ID])
	}
	return out
}
