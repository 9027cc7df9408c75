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
	// Measured cost per 1000 trials per row: about 0.6 ms of one CPU,
	// and a 4 KB sample buffer for each port the row samples.
	CTrials int
	// OGoodRuns is the number of good simulations per row for the
	// observability metric; each spawns 2×n error injections per
	// component (paper Section 2.2) — up to 384 on this core. Measured
	// cost: about 0.17 ms of one CPU per good run per row (4 ms per
	// good run for the table).
	OGoodRuns int
	// Seed makes the engine deterministic.
	Seed int64
}

// The paper's coverage thresholds: a built table's cell covers its
// component mode when C ≥ Cθ and O ≥ Oθ.
const (
	cThreshold = 0.70
	oThreshold = 0.50
)

func (c Config) withDefaults() Config {
	if c.CTrials == 0 {
		c.CTrials = 20000
	}
	if c.OGoodRuns == 0 {
		c.OGoodRuns = 100
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

// slot is one instruction of the loaded sequence as the core fetches it.
type slot struct {
	word   uint32 // the encoded instruction; its immediate is zero when rndImm
	rndImm bool   // each trial ORs a random immediate into bits [11:4]
	out    bool   // an OUT: it drives the output port in writeback
}

// scratch is the working memory of one measurement: the sequence with
// its encoded words, the core with its probe, the port histograms of
// every column, the draw tape and the output traces. One goroutine uses
// a scratch at a time; the pool hands it on between measurements so the
// sample buffers are allocated once.
type scratch struct {
	seq   Sequence
	slots []slot
	core  *dsp.Core
	rec   recorder
	// hists[column][port], allocated when a measurement first exercises
	// the column and emptied after each measurement.
	hists [][]*Histogram
	// The distinct sample streams of a measurement, their entropies and,
	// for each sampled port in column order, its stream's index.
	distinct []*Histogram
	entropy  []float64
	streams  []int
	tape     tape
	good     []uint8
	bad      []uint8
}

var scratchPool = sync.Pool{New: func() any {
	return &scratch{core: dsp.New(), hists: make([][]*Histogram, len(columns))}
}}

// load makes seq the sequence runTrial runs, encoding its words once.
// A random immediate (LDRND, or LD marked RndImm) is drawn per trial.
func (sc *scratch) load(seq Sequence) {
	sc.seq, sc.slots = seq, sc.slots[:0]
	for _, in := range seq.Instrs {
		s := slot{out: in.Op == isa.OpOut}
		if in.Op == isa.OpLdRnd || in.Op == isa.OpLdi && in.RndImm {
			in.Op, in.Imm, s.rndImm = isa.OpLdi, 0, true
		}
		s.word = in.Encode()
		sc.slots = append(sc.slots, s)
	}
}

// runTrial executes one randomized trial of the loaded sequence up to
// the last instruction's writeback and returns the output trace, one
// entry per cycle, appended to trace[:0]. Only an OUT in writeback
// changes the output port, so a longer run would only repeat the last
// entry, in a good run and a faulty run alike. When inject targets an
// accumulator, the stored state is corrupted right after the target's
// execute cycle (errors at a register's output are errors in its
// contents); other components are overridden through the probe.
func (sc *scratch) runTrial(src source, trace []uint8, injectAcc dsp.Component, accErr uint32) []uint8 {
	core, rec, slots := sc.core, &sc.rec, sc.slots
	core.SetProbe(nil)
	core.Reset()
	rec.resetTrial()
	for i := 0; i < isa.NumRegs; i++ {
		core.SetReg(i, uint8(src.Uint32()))
	}
	var accA, accB uint32
	if sc.seq.State == AccRandom {
		accA = src.Uint32() & dsp.Mask18
		accB = src.Uint32() & dsp.Mask18
	}
	core.SetAcc(isa.AccA, accA)
	core.SetAcc(isa.AccB, accB)

	trace = trace[:0]
	s2Cycle := sc.seq.Target + 1
	exCycle := sc.seq.Target + dsp.EXLatency

	attached := false
	for cyc := 0; cyc < len(slots)+dsp.PipelineDepth-1; cyc++ {
		word := uint32(0)
		if cyc < len(slots) {
			word = slots[cyc].word
			if slots[cyc].rndImm {
				word |= uint32(uint8(src.Uint32())) << 4
			}
		}
		switch cyc {
		case s2Cycle:
			rec.armed, rec.window = true, stageS2
		case exCycle:
			rec.armed, rec.window = true, stageEX
		default:
			rec.armed = false
		}
		// The recorder records and injects only in its armed windows and
		// while an OUT is in writeback, driving the output port; on every
		// other cycle the core runs without it.
		fed := cyc - (dsp.PipelineDepth - 1)
		probed := rec.armed || fed >= 0 && slots[fed].out
		if probed != attached {
			if attached = probed; probed {
				core.SetProbe(rec)
			} else {
				core.SetProbe(nil)
			}
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
