// Package metrics implements the paper's instruction-level testability
// metrics: the entropy-based controllability metric C(X) and the
// error-injection observability metric O(X), assembled into a metrics
// table (one row per instruction variant, one column per component mode)
// that drives the self-test program generator.
//
// Controllability follows the paper's Section 2.1/3.2 definitions: the
// normalized entropy of a component's *input* ports under behavioral
// simulation, with statistically independent ports decomposed as
// C(X,Y) = (H(X)+H(Y)) / (n_X + n_Y). Observability follows Section 2.2:
// random erroneous values replace a component's output (2×n injections
// per good simulation for an n-bit output) and O(X) is the fraction that
// reach the core's primary output.
package metrics

import (
	"math"
	"slices"
	"sync"
)

// Histogram accumulates a value distribution for entropy estimation.
// It keeps the samples themselves, masked to the histogram width, and
// counts them only when Entropy sorts them; use one Histogram per signal
// and Reset between measurements to reuse the allocation.
type Histogram struct {
	width   int
	samples []uint32
}

// sortBuffers lends the radix sort its second buffer.
var sortBuffers = sync.Pool{New: func() any { return new([]uint32) }}

// NewHistogram returns an empty histogram for width-bit values.
func NewHistogram(width int) *Histogram { return &Histogram{width: width} }

// Width returns the signal width in bits.
func (h *Histogram) Width() int { return h.width }

// Total returns the number of accumulated samples.
func (h *Histogram) Total() int { return len(h.samples) }

// Add accumulates one sample (masked to the histogram width).
func (h *Histogram) Add(v uint32) {
	h.samples = append(h.samples, v&(uint32(1)<<uint(h.width)-1))
}

// sameSamples reports whether o holds the same samples at the same width
// in the same order.
func (h *Histogram) sameSamples(o *Histogram) bool {
	return h.width == o.width && slices.Equal(h.samples, o.samples)
}

// Reset clears all samples, keeping the allocation.
func (h *Histogram) Reset() { h.samples = h.samples[:0] }

// Entropy returns the Miller-Madow-corrected plug-in entropy estimate in
// bits, clamped to [0, width]. The correction (K−1)/(2N·ln2) compensates
// the plug-in estimator's downward bias when the sample count is not
// much larger than the support size — the regime the paper's wide
// (18-bit) accumulator signals put us in.
//
// The samples are sorted and the terms summed over runs of equal values
// in ascending value order, whatever order the samples arrived in, so
// equal sample multisets give equal bits.
func (h *Histogram) Entropy() float64 {
	if len(h.samples) == 0 {
		return 0
	}
	h.sort()
	n := float64(len(h.samples))
	// Short runs recur, so each short run length's term is computed
	// once (a term is never 0 unless a single run holds every sample).
	// The conversion rounds the product before the subtraction, on every
	// architecture, whether the term was computed now or before.
	var short [64]float64
	var hPlug float64
	distinct, run := 0, 0
	for i, v := range h.samples {
		if run++; i+1 < len(h.samples) && h.samples[i+1] == v {
			continue // the run of v goes on
		}
		var t float64
		if run < len(short) {
			t = short[run]
		}
		if t == 0 {
			p := float64(run) / n
			t = float64(p * math.Log2(p))
			if run < len(short) {
				short[run] = t
			}
		}
		hPlug -= t
		distinct, run = distinct+1, 0
	}
	hMM := hPlug + float64(distinct-1)/(2*n*math.Ln2)
	return min(max(hMM, 0), float64(h.width))
}

// sort orders the samples ascending with a least-significant-digit radix
// sort: ⌈width/11⌉ passes of equal digits, each a counting pass and a
// scatter into the other buffer.
func (h *Histogram) sort() {
	passes := max((h.width+10)/11, 1)
	digit := (h.width + passes - 1) / passes
	var count [1<<11 + 1]int
	buf := sortBuffers.Get().(*[]uint32)
	spare := slices.Grow((*buf)[:0], len(h.samples))[:len(h.samples)]
	for shift := 0; shift < h.width; shift += digit {
		mask := uint32(1)<<uint(digit) - 1
		clear(count[:mask+2])
		for _, v := range h.samples {
			count[v>>uint(shift)&mask+1]++
		}
		for d := uint32(1); d <= mask; d++ {
			count[d] += count[d-1]
		}
		for _, v := range h.samples {
			d := v >> uint(shift) & mask
			spare[count[d]] = v
			count[d]++
		}
		h.samples, spare = spare, h.samples
	}
	*buf = spare
	sortBuffers.Put(buf)
}

// Controllability returns the normalized multi-port controllability:
// the sum of per-port entropies divided by the total input width,
// following the paper's independence decomposition.
func Controllability(ports ...*Histogram) float64 {
	var hSum, wSum float64
	for _, p := range ports {
		if p.Total() == 0 {
			continue
		}
		hSum += p.Entropy()
		wSum += float64(p.Width())
	}
	return normalized(hSum, wSum)
}

// normalized is a summed entropy over its total width, at most 1.
func normalized(hSum, wSum float64) float64 {
	if wSum == 0 {
		return 0
	}
	c := hSum / wSum
	if c > 1 {
		c = 1
	}
	return c
}
