// Package simpledsp models the small DSP datapath of the paper's
// Figure 1 — a multiplier feeding an ALU (add / subtract / clear) that
// writes an accumulator — and reproduces the controllability/
// observability metrics table of Table 1.
//
// The datapath executes one "instruction" per cycle: two 8-bit operands
// enter, the multiplier forms their 16-bit product, the ALU combines it
// with the accumulator under the instruction's mode, and the result is
// stored back and observed at the 8-bit output (the accumulator's high
// byte). Each instruction's metrics are computed twice, with the
// accumulator zero ("0" rows) and holding a random value ("R" rows).
package simpledsp

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/logic"
	"repro/internal/metrics"
	"repro/internal/synth"
)

// Op is a simple-datapath instruction.
type Op uint8

// Instructions (Table 1 rows, without the accumulator-state suffix).
const (
	// OpAdd sets acc = product + acc.
	OpAdd Op = iota
	// OpSub sets acc = product − acc.
	OpSub
	// OpMac sets acc = product + (acc << 1): the multiply-accumulate
	// variant with a doubled feedback term.
	OpMac
	// OpClr clears the accumulator; the product is computed but unused.
	OpClr
	numOps
)

var opNames = [numOps]string{"Add", "Sub", "Mac", "Clr"}

// String returns the mnemonic.
func (o Op) String() string { return opNames[o] }

// Ops lists all instructions.
func Ops() []Op { return []Op{OpAdd, OpSub, OpMac, OpClr} }

// Comp is a probed datapath component (Table 1 columns).
type Comp uint8

// Components.
const (
	CompMult  Comp = iota
	CompAdd        // ALU in add mode
	CompSub        // ALU in subtract mode
	CompClear      // ALU in clear mode
	CompAcc
	numComps
)

var compNames = [numComps]string{"Mult", "Add", "Sub", "Clear", "Acc"}

// String returns the component name.
func (c Comp) String() string { return compNames[c] }

// Comps lists all components.
func Comps() []Comp { return []Comp{CompMult, CompAdd, CompSub, CompClear, CompAcc} }

// aluMode maps an op to the ALU mode component exercised.
func (o Op) aluMode() Comp {
	switch o {
	case OpAdd, OpMac:
		return CompAdd
	case OpSub:
		return CompSub
	default:
		return CompClear
	}
}

const accWidth = 16

// Core is the behavioral simple datapath.
type Core struct {
	Acc uint32 // 16-bit accumulator

	// Probe hooks, optional: called with each component's output.
	Observe func(c Comp, value uint32) uint32
}

func (c *Core) observe(comp Comp, v uint32, width int) uint32 {
	mask := uint32(1)<<uint(width) - 1
	if c.Observe == nil {
		return v & mask
	}
	return c.Observe(comp, v&mask) & mask
}

// Step executes one instruction with the given operands and returns the
// observable 8-bit output (the accumulator's high byte after the write).
func (c *Core) Step(op Op, a, b uint8) uint8 {
	prod := c.observe(CompMult, uint32(int32(int8(a))*int32(int8(b))), accWidth)
	accIn := c.observe(CompAcc, c.Acc, accWidth)
	var alu uint32
	switch op {
	case OpAdd:
		alu = c.observe(CompAdd, prod+accIn, accWidth)
	case OpSub:
		alu = c.observe(CompSub, prod-accIn, accWidth)
	case OpMac:
		alu = c.observe(CompAdd, prod+(accIn<<1), accWidth)
	case OpClr:
		alu = c.observe(CompClear, 0, accWidth)
	}
	c.Acc = alu & (1<<accWidth - 1)
	return uint8(c.Acc >> 8)
}

// BuildGate emits the gate-level equivalent (for fault-simulating the
// toy datapath in examples and benches).
func BuildGate() (*logic.Netlist, logic.Bus, logic.Bus, logic.Bus, error) {
	b := logic.NewBuilder()
	a := b.InputBus("a", 8)
	x := b.InputBus("b", 8)
	opSel := b.InputBus("op", 2) // 00 add, 01 sub, 10 mac, 11 clr
	var prod logic.Bus
	b.Scoped("Mult", func() {
		prod = synth.MulSigned(b, a, x, accWidth)
	})
	accFeed := make(logic.Bus, accWidth)
	for i := range accFeed {
		accFeed[i] = b.DeferredBuf()
	}
	var acc logic.Bus
	b.Scoped("Acc", func() { acc = b.DFFBus(accFeed, "acc") })
	var alu logic.Bus
	b.Scoped("ALU", func() {
		accTerm := b.Mux2Bus(opSel[1], acc, shiftLeft1(b, acc)) // mac doubles the feedback
		sum, _ := synth.AddSub(b, prod, accTerm, opSel[0])
		isClr := b.And(opSel[0], opSel[1])
		zero := b.ConstBus(0, accWidth)
		alu = b.Mux2Bus(isClr, sum, zero)
	})
	for i := range accFeed {
		b.ResolveBuf(accFeed[i], alu[i])
	}
	out := make(logic.Bus, 8)
	copy(out, acc[8:])
	b.MarkOutputBus(out, "out")
	n, err := b.Build(logic.BuildOptions{InsertFanoutBranches: true})
	if err != nil {
		return nil, nil, nil, nil, err
	}
	return n, a, x, opSel, err
}

func shiftLeft1(b *logic.Builder, bus logic.Bus) logic.Bus {
	out := make(logic.Bus, len(bus))
	out[0] = b.Const(false)
	copy(out[1:], bus[:len(bus)-1])
	return out
}

// Row is a Table 1 row: an instruction under an accumulator-state
// assumption.
type Row struct {
	Op     Op
	Random bool // accumulator holds a random value ("R") vs zero ("0")
}

// Name renders the paper's row label ("Add 0", "Mac R", ...).
func (r Row) Name() string {
	suffix := "0"
	if r.Random {
		suffix = "R"
	}
	return fmt.Sprintf("%s %s", r.Op, suffix)
}

// Rows returns Table 1's eight rows.
func Rows() []Row {
	var rows []Row
	for _, op := range Ops() {
		rows = append(rows, Row{Op: op}, Row{Op: op, Random: true})
	}
	return rows
}

// Cell is one Table 1 entry.
type Cell struct {
	Active bool
	C, O   float64
}

// Table is the Table 1 reproduction.
type Table struct {
	Rows  []Row
	Cols  []Comp
	Cells [][]Cell
}

// Config sizes the measurement.
type Config struct {
	CTrials   int // controllability trials per row (default 20000)
	OGoodRuns int // observability good runs per row (default 200)
	Seed      int64
}

// BuildTable measures the full metrics table. Controllability is the
// normalized input entropy of each component (multiplier: the two
// operands; ALU: product and accumulator term; accumulator: the ALU
// result); observability is the detected fraction of 2×n random output
// corruptions per good run, observed at the 8-bit output over a short
// horizon.
func BuildTable(cfg Config) *Table {
	if cfg.CTrials == 0 {
		cfg.CTrials = 20000
	}
	if cfg.OGoodRuns == 0 {
		cfg.OGoodRuns = 200
	}
	t := &Table{Rows: Rows(), Cols: Comps()}
	t.Cells = make([][]Cell, len(t.Rows))
	for r, row := range t.Rows {
		t.Cells[r] = measureRow(row, cfg)
	}
	return t
}

func measureRow(row Row, cfg Config) []Cell {
	cells := make([]Cell, numComps)
	rng := rand.New(rand.NewSource(cfg.Seed + int64(row.Op)*2 + b2i(row.Random)))

	// Controllability: per-component input-port histograms.
	multA := metrics.NewHistogram(8)
	multB := metrics.NewHistogram(8)
	aluP := metrics.NewHistogram(accWidth)
	aluAcc := metrics.NewHistogram(accWidth)
	accState := metrics.NewHistogram(accWidth)
	var prodSeen, accSeen uint32
	core := &Core{Observe: func(c Comp, v uint32) uint32 {
		switch c {
		case CompMult:
			prodSeen = v
		case CompAcc:
			accSeen = v
		}
		return v
	}}
	for i := 0; i < cfg.CTrials; i++ {
		a, b := uint8(rng.Uint32()), uint8(rng.Uint32())
		core.Acc = 0
		if row.Random {
			core.Acc = rng.Uint32() & (1<<accWidth - 1)
		}
		core.Step(row.Op, a, b)
		multA.Add(uint32(a))
		multB.Add(uint32(b))
		aluP.Add(prodSeen)
		aluAcc.Add(accSeen)
		// The accumulator is a register: its metric tracks the stored
		// state over the target and the two follow-up instructions every
		// real test sequence contains.
		accState.Add(core.Acc)
		core.Step(OpAdd, uint8(rng.Uint32()), uint8(rng.Uint32()))
		accState.Add(core.Acc)
		core.Step(OpAdd, uint8(rng.Uint32()), uint8(rng.Uint32()))
		accState.Add(core.Acc)
	}
	cells[CompMult] = Cell{Active: true, C: metrics.Controllability(multA, multB)}
	aluC := metrics.Controllability(aluP, aluAcc)
	cells[row.Op.aluMode()] = Cell{Active: true, C: aluC}
	cells[CompAcc] = Cell{Active: true, C: metrics.Controllability(accState)}

	// Observability: corrupt each component's output, watch the output
	// for this and the next few cycles (follow-up adds propagate the
	// accumulator state).
	run := newObsRun(row.Op)
	for _, comp := range Comps() {
		if !cells[comp].Active {
			continue
		}
		inj, det := 0, 0
		for g := 0; g < cfg.OGoodRuns; g++ {
			in := drawObsOperands(row, cfg.Seed*7919+int64(g))
			goodTrace := run.trial(in, comp, false, 0)
			for k := 0; k < 2*accWidth; k++ {
				errVal := uint32(rng.Uint32()) & (1<<accWidth - 1)
				badTrace := run.trial(in, comp, true, errVal)
				inj++
				if goodTrace != badTrace {
					det++
				}
			}
		}
		cells[comp].O = float64(det) / float64(inj)
	}
	return cells
}

// obsOperands are the random values of one observability good run; its
// error injections repeat them.
type obsOperands struct {
	a, b   uint8  // the target instruction's operands
	acc    uint32 // accumulator before the target (zero on "0" rows)
	fa, fb uint8  // operands of both follow-up adds
}

func drawObsOperands(row Row, seed int64) obsOperands {
	rng := rand.New(rand.NewSource(seed))
	in := obsOperands{a: uint8(rng.Uint32()), b: uint8(rng.Uint32())}
	if row.Random {
		in.acc = rng.Uint32() & (1<<accWidth - 1)
	}
	in.fa, in.fb = uint8(rng.Uint32()), uint8(rng.Uint32())
	return in
}

// obsRun runs the observability trials of one row on one core; armed,
// comp and errVal describe the error the probe plants next.
type obsRun struct {
	op     Op
	core   Core
	armed  bool
	comp   Comp
	errVal uint32
}

func newObsRun(op Op) *obsRun {
	r := &obsRun{op: op}
	r.core.Observe = r.observe
	return r
}

func (r *obsRun) observe(c Comp, v uint32) uint32 {
	if !r.armed || c != r.comp {
		return v
	}
	r.armed = false
	if r.errVal == v {
		return ^v & (1<<accWidth - 1)
	}
	return r.errVal
}

// trial runs the target instruction then two follow-up adds (the
// wrapper that exposes accumulator state) and packs the output trace.
// With inject set, comp's output in the target's cycle is errVal.
func (r *obsRun) trial(in obsOperands, comp Comp, inject bool, errVal uint32) uint64 {
	core := &r.core
	core.Acc = in.acc
	r.armed, r.comp, r.errVal = inject && comp != CompAcc, comp, errVal
	trace := uint64(core.Step(r.op, in.a, in.b))
	r.armed = false
	if inject && comp == CompAcc {
		// A register's output error is an error in its contents.
		if errVal == core.Acc {
			errVal = ^core.Acc & (1<<accWidth - 1)
		}
		core.Acc = errVal
		trace = uint64(uint8(core.Acc >> 8))
	}
	trace = trace<<8 | uint64(core.Step(OpAdd, in.fa, in.fb))
	trace = trace<<8 | uint64(core.Step(OpAdd, in.fa, in.fb))
	return trace
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// Render formats the table in the paper's Table 1 style.
func (t *Table) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-8s", "Opcode")
	for _, c := range t.Cols {
		fmt.Fprintf(&sb, "| %-11s", c)
	}
	sb.WriteByte('\n')
	for r, row := range t.Rows {
		fmt.Fprintf(&sb, "%-8s", row.Name())
		for ci := range t.Cols {
			cell := t.Cells[r][ci]
			if !cell.Active {
				fmt.Fprintf(&sb, "| %-11s", "")
				continue
			}
			fmt.Fprintf(&sb, "| %.2f/%.2f   ", cell.C, cell.O)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
