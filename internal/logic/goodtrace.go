package logic

// goodtrace.go holds the fault-free machine's recorded behavior, shared
// between the good-machine pass and every fault batch replay of the
// compiled kernel (see conesim.go), and — since the trace is addressed
// by absolute cycle — reusable across jobs: a trace filled once for a
// (design, vector source) pair can be replayed by any later campaign on
// the same pair (internal/artifacts keys them by content hash).

// GoodTrace stores the fault-free machine's per-cycle net values as
// packed bitsets (one bit per net per cycle, snapshotted after settle
// and before the clock edge) over a window of absolute cycles
// [off, off+cap). Rows [off, valid) are recorded; the frontier is the
// packed flip-flop state the machine held entering cycle
// frontierCycle, which lets a filler resume exactly where the previous
// one stopped (or a fresh window start without replaying the prefix).
type GoodTrace struct {
	words int // uint64 words per cycle row
	off   int // absolute cycle of row 0
	cap   int // window length in rows
	valid int // absolute cycle bound: rows [off, valid) are recorded
	bits  []uint64

	// frontier is the packed DFF state (Netlist.DFFs order) at the start
	// of cycle frontierCycle. nil means the all-zero reset state, which
	// is every simulation's cycle-0 state.
	frontier      []uint64
	frontierCycle int
}

// NewGoodTrace returns an empty trace for a circuit with numNets nets,
// windowed over absolute cycles [0, maxCycles). The frontier starts at
// cycle 0 in the all-zero reset state.
func NewGoodTrace(numNets, maxCycles int) *GoodTrace {
	w := (numNets + 63) / 64
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
// missing cycle on c's buffer-free program over value slots of its own,
// packs the row a 64-net word at a time, and leaves the frontier at end
// so the next call — or a survivor-state query at the boundary — picks
// up without resimulation. at supplies an absolute cycle's packed input
// vector (bit i drives Netlist.Inputs()[i]). It returns the
// instructions executed.
func (t *GoodTrace) Extend(c *Compiled, end int, at func(cycle int) uint64) int64 {
	start := t.valid
	if t.frontierCycle != start || end > t.off+t.cap {
		panic("logic: GoodTrace.Extend from a stale frontier or past the window")
	}
	if end <= start {
		return 0
	}
	// Only a buffer shares a slot: sources and flip-flops keep their own.
	f, n := &c.fill, c.n
	vals := make([]uint64, c.slots)
	for id := range n.gates {
		if n.gates[id].Kind == GateConst1 {
			vals[id] = ^uint64(0)
		}
	}
	for i, q := range n.dffs {
		if i>>6 < len(t.frontier) {
			vals[q] = -(t.frontier[i>>6] >> (uint(i) & 63) & 1)
		}
	}
	next := make([]uint64, len(n.dffs))
	for cyc := start; cyc < end; cyc++ {
		vec := at(cyc)
		for bi, in := range n.inputs {
			vals[in] = -(vec >> uint(bi) & 1)
		}
		runProgram(f.code, f.dst, f.a0, f.a1, f.a2, vals, 0, int32(len(f.code)))
		row := t.row(cyc)
		for j := 0; j*64 < len(f.slot); j++ {
			var w uint64
			for b, sl := range f.slot[j*64 : min(j*64+64, len(f.slot))] {
				w |= (vals[sl] & 1) << uint(b)
			}
			row[j] = w
		}
		for i := range next {
			next[i] = vals[f.slot[c.dNet[i]]]
		}
		for i, q := range n.dffs {
			vals[q] = next[i]
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

// row returns the packed net values of an absolute cycle.
func (t *GoodTrace) row(cycle int) []uint64 {
	r := cycle - t.off
	return t.bits[r*t.words : (r+1)*t.words]
}

// Bit returns net id's fault-free value (0 or 1) at the absolute cycle.
func (t *GoodTrace) Bit(cycle int, id NetID) uint64 {
	return t.row(cycle)[id>>6] >> (uint(id) & 63) & 1
}

// Word returns net id's fault-free value broadcast across all 64 lanes.
func (t *GoodTrace) Word(cycle int, id NetID) uint64 {
	return -t.Bit(cycle, id)
}
