package logic

// export_test.go keeps the fill this package had before GoodTrace.Extend
// — a CompiledSim settling the full compiled program, buffers and all,
// and a per-net snapshot of its lane 0 — as the oracle the trace tests
// here and in package logic_test compare Extend against.

// Record snapshots lane 0 of the simulator's settled frame at the given
// absolute cycle, one bit per net in net order (the identity alias), and
// advances the valid watermark. Cycles must be recorded in order from the
// watermark.
func (t *GoodTrace) Record(cycle int, s *CompiledSim) {
	if cycle != t.valid || cycle < t.off || cycle >= t.off+t.cap {
		panic("logic: GoodTrace.Record out of order or outside window")
	}
	t.alias = nil
	row := t.row(cycle)
	for i := range row {
		row[i] = 0
	}
	for i, v := range s.vals[:s.c.numNets] {
		row[i>>6] |= (v & 1) << (uint(i) & 63)
	}
	t.valid = cycle + 1
}

// LoadState loads a packed DFF state (Netlist.DFFs order) into every
// lane at once. A nil or empty src is the all-zero reset state.
func (s *CompiledSim) LoadState(src []uint64) {
	for i, q := range s.c.n.dffs {
		if len(src) > i/64 && src[i/64]>>(uint(i)%64)&1 == 1 {
			s.vals[q] = ^uint64(0)
		} else {
			s.vals[q] = 0
		}
	}
}

// OracleExtend is the parent's fault.fillTrace: the contract of
// GoodTrace.Extend, met by Settle and Record.
func (t *GoodTrace) OracleExtend(c *Compiled, end int, at func(int) uint64) {
	good := NewCompiledSim(c)
	v := t.ValidThrough()
	fc, fstate := t.Frontier()
	if fc != v {
		panic("GoodTrace frontier out of sync with recorded prefix")
	}
	good.LoadState(fstate)
	for cyc := v; cyc < end; cyc++ {
		vec := at(cyc)
		for bi, in := range c.n.Inputs() {
			good.SetInput(in, vec>>uint(bi)&1 == 1)
		}
		good.Settle()
		t.Record(cyc, good)
		good.ClockAfterSettle()
	}
	frontier := make([]uint64, good.StateWords())
	good.LaneState(0, frontier)
	t.SetFrontier(end, frontier)
}

// ExportNames is exportNames, for the package logic_test tests.
var ExportNames = exportNames
