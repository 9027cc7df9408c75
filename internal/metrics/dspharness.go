package metrics

import (
	"sync"

	"repro/internal/dsp"
	"repro/internal/isa"
)

// Config tunes the measurement engine.
type Config struct {
	// CTrials is the number of behavioral simulations per row for the
	// controllability metric. The paper used 2000 for narrow signals and
	// "much more" (via generated C++) for wide ones; 20000 is a usable
	// default, 200000+ gives publication-quality wide-signal entropy.
	// Measured cost: about 1.2 ms of one CPU per 1000 trials per row
	// (29 ms per 1000 for the 24-row table, divided by its workers).
	CTrials int
	// OGoodRuns is the number of good simulations per row for the
	// observability metric; each spawns 2×n error injections per
	// component (paper Section 2.2) — up to 384 on this core. Measured
	// cost: about 0.4 ms of one CPU per good run per row (10 ms per good
	// run for the table).
	OGoodRuns int
	// Seed makes the engine deterministic.
	Seed int64
	// CThreshold and OThreshold are the coverage thresholds
	// (paper defaults: Cθ = 0.70, Oθ = 0.50).
	CThreshold, OThreshold float64
	// DrainCycles is how long outputs are watched past the end of a
	// sequence when detecting propagated errors.
	DrainCycles int
}

func (c Config) withDefaults() Config {
	if c.CTrials == 0 {
		c.CTrials = 20000
	}
	if c.OGoodRuns == 0 {
		c.OGoodRuns = 100
	}
	if c.CThreshold == 0 {
		c.CThreshold = 0.70
	}
	if c.OThreshold == 0 {
		c.OThreshold = 0.50
	}
	if c.DrainCycles == 0 {
		c.DrainCycles = 6
	}
	return c
}

// Engine measures instruction-level testability metrics on the
// behavioral DSP core.
type Engine struct {
	cfg Config
}

// NewEngine returns an Engine with defaults applied.
func NewEngine(cfg Config) *Engine { return &Engine{cfg: cfg.withDefaults()} }

// Sequence is an instruction sequence with a designated target
// instruction whose metrics are measured. Wrapper instructions before
// and after the target (the paper's Load/Out wrappers, Phase-2
// propagation sequences) are part of the sequence.
type Sequence struct {
	Instrs []isa.Instr
	Target int
	State  AccState // accumulator state loaded before the run
}

// StandardSequence builds the paper's default measurement harness for an
// instruction: the instruction itself, two delay slots, and an OUT
// wrapper observing its destination register. Operand registers are R1
// and R2 (their contents are randomized per trial), destination R3.
func StandardSequence(op isa.Op, acc isa.Acc, state AccState) Sequence {
	target := isa.Instr{Op: op, Acc: acc}
	switch op.Format() {
	case isa.Format1:
		target.RA, target.RB, target.RD = 1, 2, 3
	case isa.Format2:
		target.RD = 3 // immediate randomized per trial
	case isa.Format3:
		target.Src = 1
	case isa.Format4:
		target.Src, target.RD = 1, 3
	}
	if op.Format() == isa.Format2 {
		// Load immediates come from LFSR1 in the template architecture;
		// measure them as random.
		target.RndImm = true
	}
	seq := Sequence{Instrs: []isa.Instr{target}, State: state}
	if op.WritesDest() {
		seq.Instrs = append(seq.Instrs,
			isa.Instr{Op: isa.OpNop},
			isa.Instr{Op: isa.OpNop},
			isa.Instr{Op: isa.OpOut, Src: target.RD},
		)
	}
	return seq
}

// componentStage assigns each component to the pipeline stage (relative
// to the target instruction) in which its metrics are sampled.
type stage uint8

const (
	stageS2  stage = iota // target in decode/read
	stageEX               // target in execute
	stageAny              // sampled whenever exercised (output port)
)

func componentStage(c dsp.Component) stage {
	switch c {
	case dsp.CompRegPortA, dsp.CompRegPortB, dsp.CompForward:
		return stageS2
	case dsp.CompOutPort:
		return stageAny
	default:
		return stageEX
	}
}

// portSrc names one input port of a component: either another
// component's observed output or a raw datapath signal.
type portSrc struct {
	isComp bool
	comp   dsp.Component
	sig    dsp.Signal
}

func (p portSrc) width() int {
	if p.isComp {
		return p.comp.Width()
	}
	return p.sig.Width()
}

// compPorts maps each component to its input ports, the signals the
// controllability metric measures (paper Section 3.2). Register-file
// read ports, the forwarding register and the accumulators are sampled
// at the value they deliver/store.
var compPorts = [...][]portSrc{
	dsp.CompMultiplier: {{sig: dsp.SigOpA}, {sig: dsp.SigOpB}},
	dsp.CompShifter:    {{sig: dsp.SigAccSel}, {sig: dsp.SigShiftAmt}},
	dsp.CompAddSub:     {{isComp: true, comp: dsp.CompMuxA}, {isComp: true, comp: dsp.CompMuxB}},
	dsp.CompMuxA:       {{isComp: true, comp: dsp.CompShifter}},
	dsp.CompMuxB:       {{isComp: true, comp: dsp.CompMultiplier}},
	dsp.CompTruncater:  {{isComp: true, comp: dsp.CompAddSub}},
	dsp.CompAccA:       {{isComp: true, comp: dsp.CompTruncater}},
	dsp.CompAccB:       {{isComp: true, comp: dsp.CompTruncater}},
	dsp.CompLimiter:    {{isComp: true, comp: dsp.CompTruncater}},
	dsp.CompRegPortA:   {{isComp: true, comp: dsp.CompRegPortA}},
	dsp.CompRegPortB:   {{isComp: true, comp: dsp.CompRegPortB}},
	dsp.CompForward:    {{isComp: true, comp: dsp.CompForward}},
	dsp.CompBuffer:     {{sig: dsp.SigSrcVal}, {sig: dsp.SigImm}},
	dsp.CompOutPort:    {{sig: dsp.SigOutVal}},
}

// recorder is the probe used for both metric passes. In monitoring mode
// it captures component outputs, modes and signals inside the armed
// windows. In injection mode it additionally overrides one component's
// output during its window.
type recorder struct {
	window stage // currently armed window
	armed  bool

	compSeen [16]bool
	compVal  [16]uint32
	compMode [16]int
	sigSeen  [8]bool
	sigVal   [8]uint32

	outSeen bool
	outVal  uint32

	inject     bool
	injectComp dsp.Component
	injectVal  uint32
	injected   bool

	// Accumulator contents right after the target's execute cycle
	// (captured for accumulator error injection).
	accAAfter, accBAfter uint32
}

func (r *recorder) resetTrial() {
	r.compSeen = [16]bool{}
	r.sigSeen = [8]bool{}
	r.outSeen = false
	r.injected = false
}

func (r *recorder) Observe(comp dsp.Component, mode int, value uint32) uint32 {
	if comp == dsp.CompOutPort {
		// Exercised by any OUT reaching writeback, wrapper included.
		if !r.outSeen {
			r.outSeen = true
			r.outVal = value
			if r.inject && r.injectComp == comp && !r.injected {
				r.injected = true
				return r.injectVal
			}
		}
		return value
	}
	if !r.armed || componentStage(comp) != r.window {
		return value
	}
	r.compSeen[comp] = true
	r.compVal[comp] = value
	r.compMode[comp] = mode
	if r.inject && r.injectComp == comp && !r.injected {
		r.injected = true
		return r.injectVal
	}
	return value
}

func (r *recorder) Signal(sig dsp.Signal, value uint32) {
	if sig == dsp.SigOutVal {
		r.sigSeen[sig] = true
		r.sigVal[sig] = value
		return
	}
	if !r.armed || r.window != stageEX {
		return
	}
	r.sigSeen[sig] = true
	r.sigVal[sig] = value
}

// source is the stream of random words a trial draws its register,
// accumulator and immediate values from.
type source interface{ Uint32() uint32 }

// tape is a source that records the words one trial draws from another
// source and then serves them again, so the error injections of the
// observability pass repeat their good run's operands without
// re-seeding a generator per injection.
type tape struct {
	from  source // recording from; nil while replaying
	words []uint32
	next  int
}

// record empties the tape and starts recording what is drawn from src.
func (t *tape) record(src source) { t.from, t.words = src, t.words[:0] }

// rewind switches the tape to replaying, from its first word.
func (t *tape) rewind() { t.from, t.next = nil, 0 }

// spent reports whether a replay drew every recorded word.
func (t *tape) spent() bool { return t.next == len(t.words) }

func (t *tape) Uint32() uint32 {
	if t.from != nil {
		w := t.from.Uint32()
		t.words = append(t.words, w)
		return w
	}
	w := t.words[t.next]
	t.next++
	return w
}

// scratch is the working memory of one measurement: the core with its
// probe, the port histograms of every column, the draw tape and the
// output traces. One goroutine uses a scratch at a time; the pool hands
// it on between measurements so the histogram arrays are allocated once.
type scratch struct {
	core *dsp.Core
	rec  recorder
	// hists[column][port] of the columns the running measurement has
	// exercised; spare holds empty histograms by width, so a row's
	// columns reuse the arrays of the row before, whichever those were.
	hists [][]*Histogram
	spare map[int][]*Histogram
	tape  tape
	good  []uint8
	bad   []uint8
}

// histogram returns an empty width-bit histogram.
func (sc *scratch) histogram(width int) *Histogram {
	if l := sc.spare[width]; len(l) > 0 {
		sc.spare[width] = l[:len(l)-1]
		return l[len(l)-1]
	}
	return NewHistogram(width)
}

var scratchPool = sync.Pool{New: func() any {
	sc := &scratch{
		core:  dsp.New(),
		hists: make([][]*Histogram, len(columns)),
		spare: make(map[int][]*Histogram),
	}
	sc.core.SetProbe(&sc.rec)
	return sc
}}

// runTrial executes one randomized trial of the sequence for the given
// number of cycles and returns the output trace, one entry per cycle,
// appended to trace[:0]. When inject targets an accumulator, the stored
// state is corrupted right after the target's execute cycle (errors at
// a register's output are errors in its contents); other components are
// overridden through the probe.
func (sc *scratch) runTrial(seq Sequence, src source, cycles int, trace []uint8,
	injectAcc dsp.Component, accErr uint32) []uint8 {

	core, rec := sc.core, &sc.rec
	core.Reset()
	rec.resetTrial()
	for i := 0; i < isa.NumRegs; i++ {
		core.SetReg(i, uint8(src.Uint32()))
	}
	var accA, accB uint32
	if seq.State == AccRandom {
		accA = src.Uint32() & dsp.Mask18
		accB = src.Uint32() & dsp.Mask18
	}
	core.SetAcc(isa.AccA, accA)
	core.SetAcc(isa.AccB, accB)

	trace = trace[:0]
	s2Cycle := seq.Target + 1
	exCycle := seq.Target + dsp.EXLatency

	for cyc := 0; cyc < cycles; cyc++ {
		word := uint32(0)
		if cyc < len(seq.Instrs) {
			in := seq.Instrs[cyc]
			if in.Op == isa.OpLdi || in.Op == isa.OpLdRnd {
				if in.RndImm || in.Op == isa.OpLdRnd {
					in.Imm = uint8(src.Uint32())
					in.Op = isa.OpLdi
				}
			}
			word = in.Encode()
		}
		switch cyc {
		case s2Cycle:
			rec.armed, rec.window = true, stageS2
		case exCycle:
			rec.armed, rec.window = true, stageEX
		default:
			rec.armed = false
		}
		core.Step(word)
		if cyc == exCycle {
			rec.accAAfter = core.AccValue(isa.AccA)
			rec.accBAfter = core.AccValue(isa.AccB)
			if injectAcc == dsp.CompAccA {
				core.SetAcc(isa.AccA, accErr)
			}
			if injectAcc == dsp.CompAccB {
				core.SetAcc(isa.AccB, accErr)
			}
		}
		trace = append(trace, core.Output())
	}
	rec.armed = false
	return trace
}

// noAcc marks "no accumulator state injection" for runTrial.
const noAcc = dsp.Component(255)
