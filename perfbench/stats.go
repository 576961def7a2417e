package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is the number of samples that must lie beyond a reported
// percentile for it to mean anything: a p99 from 300 samples is the third
// slowest sample, not a tail.
const minBeyond = 10

// tailCandidates are the percentiles the benchmark may report as a tail,
// highest first.
var tailCandidates = []float64{99.9, 99, 95, 90, 50}

// samplesBeyond is how many of n sorted samples lie strictly above the
// nearest-rank p-th percentile.
func samplesBeyond(n int, p float64) int {
	return n - rank(n, p)
}

// rank is the 1-based nearest-rank index of the p-th percentile of n
// samples. The epsilon keeps binary rounding of p/100·n (99.9% of 10000 is
// 9990.000000000002) from pushing an exact rank up by one.
func rank(n int, p float64) int {
	r := int(math.Ceil(p/100*float64(n) - 1e-9))
	return min(max(r, 1), n)
}

// highestTail returns the highest percentile in tailCandidates that has at
// least minBeyond samples beyond it, or 0 when even the median has fewer.
func highestTail(n int) float64 {
	for _, p := range tailCandidates {
		if samplesBeyond(n, p) >= minBeyond {
			return p
		}
	}
	return 0
}

// percentile returns the nearest-rank p-th percentile of xs, sorting a copy.
// It returns NaN for an empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(len(s), p)-1]
}

// median is the 50th percentile.
func median(xs []float64) float64 { return percentile(xs, 50) }

// tailChunk is the number of consecutive samples one tail estimate covers:
// enough that its p99 has 20 samples beyond it.
const tailChunk = 2000

// chunkedP99 splits samples, in the order they completed, into consecutive
// chunks of tailChunk and returns the median of the chunks' p99s. One
// noisy stretch of a run then moves one chunk's estimate instead of the
// whole run's tail. A sample too short for one full chunk is one chunk.
func chunkedP99(samples []float64) float64 {
	if len(samples) < tailChunk {
		return percentile(samples, 99)
	}
	var p99s []float64
	for i := 0; i+tailChunk <= len(samples); i += tailChunk {
		p99s = append(p99s, percentile(samples[i:i+tailChunk], 99))
	}
	return median(p99s)
}

// selfTime is a layer's own share of its span: the span minus the parts its
// callee rungs account for, floored at 0 (a negative difference is noise
// between separately measured rungs, not negative work).
func selfTime(span float64, callees ...float64) float64 {
	for _, c := range callees {
		span -= c
	}
	return max(span, 0)
}

// perCoin divides a count by the coins it paid for (0 when no coin was
// delivered, so an empty run never reports a division by zero).
func perCoin(count, coins int64) float64 {
	if coins <= 0 {
		return 0
	}
	return float64(count) / float64(coins)
}

// ratio is num/den with 0 for an empty denominator.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// coalescedGaps turns watcher wake-ups into per-coin gaps. Wake-up k saw
// counts[k] new coins at times[k]; a wake-up that saw c coins spreads the
// interval since the previous wake-up evenly over them (the watcher cannot
// tell coins apart once the kernel coalesced their events). The first
// wake-up that saw coins has no predecessor and yields no gap; wake-ups that
// saw none are skipped.
func coalescedGaps(times []time.Time, counts []int) []float64 {
	var gaps []float64
	var last time.Time
	for k, c := range counts {
		if c <= 0 {
			continue
		}
		if !last.IsZero() {
			g := ms(times[k].Sub(last)) / float64(c)
			for range c {
				gaps = append(gaps, g)
			}
		}
		last = times[k]
	}
	return gaps
}
