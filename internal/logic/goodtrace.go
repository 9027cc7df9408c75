package logic

// goodtrace.go holds the fault-free machine's recorded behavior, shared
// between the good-machine pass and every fault batch replay of the
// compiled kernel (see conesim.go), and — since the trace is addressed
// by absolute cycle — reusable across jobs: a trace filled once for a
// (design, vector source) pair can be replayed by any later campaign on
// the same pair (internal/artifacts keys them by content hash).

// GoodTrace stores the fault-free machine's per-cycle net values as
// packed bitsets over a window of absolute cycles [off, off+cap): one bit
// per dense fill slot per cycle (see Compiled.TraceBits), snapshotted
// after settle and before the clock edge, in the order the fill program
// leaves its slots, so recording a row is one sequential pass. A net's
// bit is found through the alias, net → dense slot, where an elided
// buffer maps to its source's slot; Extend installs the compiled
// program's table, and readers (Bit, Word, StateInto, and ConeSim when it
// builds a sweep) resolve through it. Rows [off, valid) are recorded; the
// frontier is the packed flip-flop state the machine held entering cycle
// frontierCycle, which lets a filler resume exactly where the previous
// one stopped (or a fresh window start without replaying the prefix).
type GoodTrace struct {
	words int // uint64 words per cycle row
	off   int // absolute cycle of row 0
	cap   int // window length in rows
	valid int // absolute cycle bound: rows [off, valid) are recorded
	bits  []uint64

	// alias maps a net to its row bit; nil is the identity, a row in net
	// order.
	alias []int32

	// frontier is the packed DFF state (Netlist.DFFs order) at the start
	// of cycle frontierCycle. nil means the all-zero reset state, which
	// is every simulation's cycle-0 state.
	frontier      []uint64
	frontierCycle int
}

// NewGoodTrace returns an empty trace with rows of at least bits bits —
// Compiled.TraceBits for Extend, which takes any width at or above it —
// windowed over absolute cycles [0, maxCycles). The frontier starts at
// cycle 0 in the all-zero reset state.
func NewGoodTrace(bits, maxCycles int) *GoodTrace {
	w := (bits + 63) / 64
	if w == 0 {
		w = 1
	}
	return &GoodTrace{words: w, cap: maxCycles, bits: make([]uint64, w*maxCycles)}
}

// Window repositions the trace over absolute cycles [off, off+cycles),
// discarding any recorded rows (valid falls back to off) and growing
// the backing storage if needed. The frontier is untouched: a filler
// that just finished cycle off-1 re-windows and resumes seamlessly.
func (t *GoodTrace) Window(off, cycles int) {
	t.EnsureCycles(cycles)
	t.off = off
	t.valid = off
}

// EnsureCycles grows the window capacity to at least cycles rows,
// preserving recorded rows. Growth copies — size windows up front when
// the final length is known.
func (t *GoodTrace) EnsureCycles(cycles int) {
	if cycles <= t.cap {
		return
	}
	grown := make([]uint64, cycles*t.words)
	copy(grown, t.bits)
	t.bits = grown
	t.cap = cycles
}

// Cycles returns the window capacity in rows.
func (t *GoodTrace) Cycles() int { return t.cap }

// ValidThrough returns the absolute cycle bound of the recorded prefix:
// rows for cycles [off, ValidThrough()) hold fault-free values.
func (t *GoodTrace) ValidThrough() int { return t.valid }

// SizeBytes reports the trace's backing memory, for cache budgeting.
func (t *GoodTrace) SizeBytes() int64 {
	return int64(len(t.bits)+len(t.frontier)) * 8
}

// Extend records the fault-free machine through absolute cycle end
// (exclusive), which must lie inside the window: it resumes from the
// frontier (which must sit at the recorded prefix's end), settles each
// missing cycle on c's buffer-free program over dense value slots of its
// own, packs the row straight from the first TraceBits slots, and leaves
// the frontier at end so the next call — or a survivor-state query at the
// boundary — picks up without resimulation. The rows must be at least
// c.TraceBits() wide. at supplies an absolute cycle's packed input vector
// (bit i drives Netlist.Inputs()[i]). It returns the instructions
// executed.
func (t *GoodTrace) Extend(c *Compiled, end int, at func(cycle int) uint64) int64 {
	start := t.valid
	f, n := &c.fill, c.n
	if t.words*64 < f.bits {
		panic("logic: GoodTrace.Extend into rows narrower than Compiled.TraceBits")
	}
	if t.frontierCycle != start || end > t.off+t.cap {
		panic("logic: GoodTrace.Extend from a stale frontier or past the window")
	}
	t.alias = f.slot
	if end <= start {
		return 0
	}
	vals := make([]uint64, f.nvals)
	for id := range n.gates {
		if n.gates[id].Kind == GateConst1 {
			vals[f.slot[id]] = ^uint64(0)
		}
	}
	for i, q := range n.dffs {
		if i>>6 < len(t.frontier) {
			vals[f.slot[q]] = -(t.frontier[i>>6] >> (uint(i) & 63) & 1)
		}
	}
	next := make([]uint64, len(n.dffs))
	for cyc := start; cyc < end; cyc++ {
		vec := at(cyc)
		for bi, in := range n.inputs {
			vals[f.slot[in]] = -(vec >> uint(bi) & 1)
		}
		runProgram(f.code, f.dst, f.a0, f.a1, f.a2, vals, 0, int32(len(f.code)))
		packRow(t.row(cyc), vals[:f.bits])
		for i := range next {
			next[i] = vals[f.slot[c.dNet[i]]]
		}
		for i, q := range n.dffs {
			vals[f.slot[q]] = next[i]
		}
	}
	t.valid = end
	state := make([]uint64, (len(next)+63)/64)
	for i, v := range next {
		state[i>>6] |= (v & 1) << (uint(i) & 63)
	}
	t.SetFrontier(end, state)
	return int64(end-start) * int64(len(f.code))
}

// packRow packs vals into row, value k to bit k, and clears the words
// past them. Every fill value is all zeros or all ones, so value k's bit
// k is its bit: a full word is 64 constant-mask picks, shifted into four
// accumulators a nibble at a time.
func packRow(row, vals []uint64) {
	for j := range row {
		var w uint64
		if len(vals) >= 64 {
			var w0, w1, w2, w3 uint64
			for q := (*[64]uint64)(vals)[:]; len(q) >= 4; q = q[4:] {
				w0 = w0>>4 | q[0]&(1<<60)
				w1 = w1>>4 | q[1]&(1<<61)
				w2 = w2>>4 | q[2]&(1<<62)
				w3 = w3>>4 | q[3]&(1<<63)
			}
			w, vals = w0|w1|w2|w3, vals[64:]
		} else {
			for b, v := range vals {
				w |= (v & 1) << uint(b)
			}
			vals = nil
		}
		row[j] = w
	}
}

// SetFrontier saves the packed DFF state the fault-free machine holds
// entering the given absolute cycle. Fillers call it after their last
// recorded cycle's clock edge so a later fill (or a survivor-state
// query at a segment boundary) can pick up without resimulation.
func (t *GoodTrace) SetFrontier(cycle int, state []uint64) {
	if cap(t.frontier) < len(state) {
		t.frontier = make([]uint64, len(state))
	}
	t.frontier = t.frontier[:len(state)]
	copy(t.frontier, state)
	t.frontierCycle = cycle
}

// Frontier returns the saved frontier cycle and state (nil = the
// all-zero reset state, valid at cycle 0).
func (t *GoodTrace) Frontier() (cycle int, state []uint64) {
	return t.frontierCycle, t.frontier
}

// StateInto writes the fault-free machine's packed DFF state at the
// start of the given absolute cycle into dst. The state comes from the
// frontier when the cycle matches it, otherwise from the recorded row
// (a row's Q bits are the state the machine held during that cycle).
func (t *GoodTrace) StateInto(cycle int, dffs []NetID, dst []uint64) {
	if cycle == t.frontierCycle {
		for i := range dst {
			dst[i] = 0
		}
		copy(dst, t.frontier)
		return
	}
	if cycle < t.off || cycle >= t.valid {
		panic("logic: GoodTrace.StateInto outside recorded window")
	}
	for i := range dst {
		dst[i] = 0
	}
	for i, q := range dffs {
		dst[i>>6] |= t.Bit(cycle, q) << (uint(i) & 63)
	}
}

// row returns the packed values of an absolute cycle.
func (t *GoodTrace) row(cycle int) []uint64 {
	r := cycle - t.off
	return t.bits[r*t.words : (r+1)*t.words]
}

// bitOf returns net id's bit position in a row.
func (t *GoodTrace) bitOf(id NetID) int32 {
	if t.alias == nil {
		return int32(id)
	}
	return t.alias[id]
}

// Bit returns net id's fault-free value (0 or 1) at the absolute cycle.
func (t *GoodTrace) Bit(cycle int, id NetID) uint64 {
	k := t.bitOf(id)
	return t.row(cycle)[k>>6] >> (uint(k) & 63) & 1
}

// Word returns net id's fault-free value broadcast across all 64 lanes.
func (t *GoodTrace) Word(cycle int, id NetID) uint64 {
	return -t.Bit(cycle, id)
}
