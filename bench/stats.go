package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a tail percentile
// before it is reported: with fewer, the figure is one or two outliers
// and moves between identical runs.
const minBeyond = 10

// tailCandidates are the tail percentiles the harness will report,
// highest first.
var tailCandidates = []float64{99, 95, 90, 75}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle sample (mean of the two middle ones for an
// even count); 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// percentile returns the p-th percentile (nearest rank) of xs. A tail
// percentile (p > 50) is refused unless at least minBeyond samples lie
// beyond it.
func percentile(xs []float64, p float64) (float64, error) {
	if len(xs) == 0 {
		return 0, fmt.Errorf("p%g of no samples", p)
	}
	if beyond := samplesBeyond(len(xs), p); p > 50 && beyond < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", p, len(xs), beyond, minBeyond)
	}
	s := sorted(xs)
	rank := len(s) - samplesBeyond(len(s), p)
	return s[rank-1], nil
}

// samplesBeyond counts the samples strictly above the p-th percentile's
// nearest rank.
func samplesBeyond(n int, p float64) int {
	// p*n first: the product of two small whole numbers is exact, p/100 is not.
	return n - int(math.Ceil(p*float64(n)/100))
}

// tail returns the highest candidate percentile the sample supports and
// its value; ok is false when even the lowest candidate has too few
// samples beyond it.
func tail(xs []float64) (p, v float64, ok bool) {
	for _, p := range tailCandidates {
		if v, err := percentile(xs, p); err == nil {
			return p, v, true
		}
	}
	return 0, 0, false
}

// sliceMedians estimates the time of an op that was run several times
// and timed in slices (ops[i][k] is slice k of run i): the median of
// each slice over the runs, summed. A one-second op integrates every
// burst of CPU steal that falls inside it, so the plain median of a
// handful of such ops moves by a tenth between identical runs; a burst
// spoils only the slices it overlaps, and each slice's median discards
// it. Runs that were not sliced alike fall back to the plain median.
func sliceMedians(ops [][]float64) float64 {
	if len(ops) == 0 {
		return 0
	}
	for _, op := range ops {
		if len(op) != len(ops[0]) {
			totals := make([]float64, len(ops))
			for i, op := range ops {
				totals[i] = sum(op)
			}
			return median(totals)
		}
	}
	var total float64
	column := make([]float64, len(ops))
	for k := range ops[0] {
		for i, op := range ops {
			column[i] = op[k]
		}
		total += median(column)
	}
	return total
}

func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func msAll(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}
