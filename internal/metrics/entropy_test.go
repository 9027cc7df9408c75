package metrics

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/dsp"
	"repro/internal/isa"
)

// oracleEntropy is Histogram.Entropy written the plain way: a map of
// counts, its terms summed in ascending value order, then the
// Miller-Madow correction and the clamp.
func oracleEntropy(samples []uint32, width int) (entropy float64, total int) {
	mask := uint32(1)<<uint(width) - 1
	counts := map[uint32]int{}
	for _, v := range samples {
		counts[v&mask]++
	}
	if len(samples) == 0 {
		return 0, 0
	}
	keys := make([]uint32, 0, len(counts))
	for v := range counts {
		keys = append(keys, v)
	}
	slices.Sort(keys)
	n := float64(len(samples))
	var h float64
	for _, v := range keys {
		p := float64(counts[v]) / n
		h -= p * math.Log2(p)
	}
	h += float64(len(keys)-1) / (2 * n * math.Ln2)
	return min(max(h, 0), float64(width)), len(samples)
}

// TestHistogramMatchesMapOracle holds Entropy and Total to the oracle
// bit for bit on random multisets of every shape the engine feeds it:
// one repeated value, all values distinct, a few values repeated many
// times, and values wider than the histogram that it must mask. Each
// histogram is filled twice, the second time after a Reset.
func TestHistogramMatchesMapOracle(t *testing.T) {
	for _, width := range []int{1, 4, 8, 16, 18, 24, 32} {
		mask := uint32(1)<<uint(width) - 1
		rng := rand.New(rand.NewSource(int64(width)))
		cases := map[string]func(n int) []uint32{
			"all equal": func(n int) []uint32 {
				s := make([]uint32, n)
				v := rng.Uint32() & mask
				for i := range s {
					s[i] = v
				}
				return s
			},
			"all distinct": func(n int) []uint32 {
				n = min(n, int(min(uint64(mask)+1, 1<<20)))
				seen := map[uint32]bool{}
				var s []uint32
				for len(s) < n {
					if v := rng.Uint32() & mask; !seen[v] {
						seen[v] = true
						s = append(s, v)
					}
				}
				return s
			},
			"heavy duplication": func(n int) []uint32 {
				pool := make([]uint32, 1+rng.Intn(12))
				for i := range pool {
					pool[i] = rng.Uint32() & mask
				}
				s := make([]uint32, n)
				for i := range s {
					// Skewed draws: low pool indices dominate.
					s[i] = pool[rng.Intn(1+rng.Intn(len(pool)))]
				}
				return s
			},
			"above the width": func(n int) []uint32 {
				s := make([]uint32, n)
				for i := range s {
					s[i] = rng.Uint32() >> uint(rng.Intn(32))
					if width < 32 {
						s[i] |= 1 << uint(width+rng.Intn(32-width))
					}
				}
				return s
			},
		}
		for _, name := range []string{"all equal", "all distinct", "heavy duplication", "above the width"} {
			h := NewHistogram(width)
			for round, n := range []int{1 + rng.Intn(50), 1 + rng.Intn(20000)} {
				samples := cases[name](n)
				h.Reset()
				for _, v := range samples {
					h.Add(v)
				}
				want, total := oracleEntropy(samples, width)
				got := h.Entropy()
				if math.Float64bits(got) != math.Float64bits(want) || h.Total() != total {
					t.Errorf("width %d, %s, round %d (%d samples): Entropy %v (%x) Total %d, oracle %v (%x) %d",
						width, name, round, len(samples), got, math.Float64bits(got), h.Total(),
						want, math.Float64bits(want), total)
				}
			}
		}
	}
}

// TestExactEntropyNarrowPorts checks measured controllability against
// its exact value on ports whose distribution is known: the registers
// are uniform random bytes, so the MPY row's two 8-bit multiplier
// operands carry exactly 8 bits each (C = 1), and the SHIFT row's 4-bit
// shift amount, the low nibble of a register, carries exactly 4 bits
// beside an accumulator held at zero (C = 4/22). At the uniform point
// the Miller-Madow estimate from N samples of K values has a remaining
// bias of O(K/N²) and a spread of about sqrt((K−1)/2)/(N·ln 2) bits:
// 0.0027 bit for one 8-bit operand at N = 6000, 0.0007 bit for the
// shift amount. So the column's entropy must lie within 0.02 bit (five
// spreads of the two-operand sum) of the exact value.
func TestExactEntropyNarrowPorts(t *testing.T) {
	const bitsOff = 0.02
	cases := []struct {
		op    isa.Op
		comp  dsp.Component
		mode  int
		exact float64 // bits of entropy over the column's input bits
		width float64
	}{
		{isa.OpMpy, dsp.CompMultiplier, 0, 16, 16},
		{isa.OpShift, dsp.CompShifter, 1, 4, 22},
	}
	for _, seed := range []int64{1, 33, 77} {
		e := NewEngine(Config{CTrials: 6000, OGoodRuns: 1, Seed: seed})
		for _, c := range cases {
			cells := e.MeasureRow(Row{Op: c.op, Acc: isa.AccA, State: AccZero})
			cell := cellFor(t, cells, c.comp, c.mode)
			if cell.CSamples != 6000 {
				t.Errorf("seed %d %s: %d samples, want 6000", seed, c.op.Mnemonic(), cell.CSamples)
			}
			want := c.exact / c.width
			if math.Abs(cell.C-want) > bitsOff/c.width {
				t.Errorf("seed %d %s / %s: C = %.6f, exact %.6f (bound ±%.6f)",
					seed, c.op.Mnemonic(), c.comp.Name(), cell.C, want, bitsOff/c.width)
			}
		}
	}
}

// TestSharedEntropyMatchesOwnCopies measures every standard row at the
// paper_flow configuration and every Phase 2 candidate shape (at 1 000
// trials, which keeps the race-checked CI rounds short), and requires
// each column's C to be bit-identical to Controllability over copies of
// that column's own sample buffers, sharing nothing. AccA, AccB and
// Limiter sample the same truncater output, so they must share one
// stream.
func TestSharedEntropyMatchesOwnCopies(t *testing.T) {
	type measured struct {
		e   *Engine
		seq Sequence
	}
	var seqs []measured
	rows := NewEngine(Config{CTrials: 6000, OGoodRuns: 4, Seed: 33})
	for _, row := range StandardRows() {
		seqs = append(seqs, measured{rows, StandardSequence(row.Op, row.Acc, row.State)})
	}
	shapes := NewEngine(Config{CTrials: 1000, OGoodRuns: 4, Seed: 33})
	for _, seq := range phase2Shapes() {
		seqs = append(seqs, measured{shapes, seq})
	}
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	ports, streams := 0, 0
	for i, m := range seqs {
		seq := m.seq
		cells := make([]Cell, len(columns))
		sc.rec = recorder{}
		sc.load(seq)
		m.e.sample(sc, cells)
		own := make([]float64, len(columns))
		stream := make([]int, len(columns)) // the stream of each column's first port
		next := 0
		for ci, hists := range sc.hists {
			if !cells[ci].Active {
				continue
			}
			var copies []*Histogram
			for _, h := range hists {
				copies = append(copies, &Histogram{width: h.width, samples: slices.Clone(h.samples)})
			}
			own[ci] = Controllability(copies...)
			stream[ci] = next
			next += len(hists)
		}
		sc.controllability(cells)
		for ci := range columns {
			if math.Float64bits(cells[ci].C) != math.Float64bits(own[ci]) {
				t.Fatalf("sequence %d %v, column %s: shared C %v, own copies %v",
					i, seq.Instrs, columns[ci].Label(), cells[ci].C, own[ci])
			}
		}
		acc := sc.streams[stream[columnIndex(dsp.CompAccA, 0)]]
		for _, comp := range []dsp.Component{dsp.CompAccB, dsp.CompLimiter} {
			if s := sc.streams[stream[columnIndex(comp, 0)]]; s != acc {
				t.Fatalf("sequence %d %v: %s reads stream %d, AccA stream %d", i, seq.Instrs, comp.Name(), s, acc)
			}
		}
		ports, streams = ports+len(sc.streams), streams+len(sc.distinct)
	}
	t.Logf("%d sequences: %d sampled ports, %d distinct streams", len(seqs), ports, streams)
}
