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
	"math/bits"
	"slices"
)

// Histogram accumulates a value distribution for entropy estimation.
// Next to its counts it keeps a bitmap of the values seen, so Reset and
// Entropy visit the distinct samples instead of the whole value range;
// use one Histogram per signal and Reset between measurements to reuse
// the allocation.
type Histogram struct {
	width    int
	total    int
	distinct int
	counts   []uint32          // dense, when width <= HistArrayBits
	occupied []uint64          // bit v set when counts[v] != 0
	wide     map[uint32]uint32 // counts of wider signals
}

// HistArrayBits is the widest signal backed by a dense count array
// (2^18 × 4 bytes = 1 MiB, the accumulator width of the DSP core).
const HistArrayBits = 18

// NewHistogram returns an empty histogram for width-bit values.
func NewHistogram(width int) *Histogram {
	h := &Histogram{width: width}
	if width <= HistArrayBits {
		slots := 1 << uint(width)
		h.counts = make([]uint32, slots)
		h.occupied = make([]uint64, (slots+63)/64)
	} else {
		h.wide = make(map[uint32]uint32)
	}
	return h
}

// Width returns the signal width in bits.
func (h *Histogram) Width() int { return h.width }

// Total returns the number of accumulated samples.
func (h *Histogram) Total() int { return h.total }

// Add accumulates one sample (masked to the histogram width).
func (h *Histogram) Add(v uint32) {
	v &= uint32(1)<<uint(h.width) - 1
	h.total++
	if h.counts == nil {
		c := h.wide[v]
		if c == 0 {
			h.distinct++
		}
		h.wide[v] = c + 1
		return
	}
	if h.counts[v] == 0 {
		h.occupied[v>>6] |= 1 << (v & 63)
		h.distinct++
	}
	h.counts[v]++
}

// Reset clears all counts, keeping the allocation.
func (h *Histogram) Reset() {
	for w, word := range h.occupied {
		for ; word != 0; word &= word - 1 {
			h.counts[w<<6|bits.TrailingZeros64(word)] = 0
		}
		h.occupied[w] = 0
	}
	clear(h.wide)
	h.total, h.distinct = 0, 0
}

// Entropy returns the Miller-Madow-corrected plug-in entropy estimate in
// bits, clamped to [0, width]. The correction (K−1)/(2N·ln2) compensates
// the plug-in estimator's downward bias when the sample count is not
// much larger than the support size — the regime the paper's wide
// (18-bit) accumulator signals put us in.
//
// The terms are summed in ascending value order whatever order the
// samples arrived in, so equal sample multisets give equal bits.
func (h *Histogram) Entropy() float64 {
	if h.total == 0 {
		return 0
	}
	n := float64(h.total)
	var hPlug float64
	term := func(c uint32) {
		p := float64(c) / n
		hPlug -= p * math.Log2(p)
	}
	for w, word := range h.occupied {
		for ; word != 0; word &= word - 1 {
			term(h.counts[w<<6|bits.TrailingZeros64(word)])
		}
	}
	if h.counts == nil {
		values := make([]uint32, 0, len(h.wide))
		for v := range h.wide {
			values = append(values, v)
		}
		slices.Sort(values)
		for _, v := range values {
			term(h.wide[v])
		}
	}
	hMM := hPlug + float64(h.distinct-1)/(2*n*math.Ln2)
	if hMM < 0 {
		hMM = 0
	}
	if max := float64(h.width); hMM > max {
		hMM = max
	}
	return hMM
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
	if wSum == 0 {
		return 0
	}
	c := hSum / wSum
	if c > 1 {
		c = 1
	}
	return c
}
