// Online self-test: the in-field deployment the paper targets — a DSP
// core alternates between its functional workload (an FIR filter) and
// periodic self-test bursts whose MISR signature is checked against a
// golden value. Midway through, a permanent fault "develops" in the
// multiplier; the next burst catches it while the workload context
// survives every healthy burst untouched.
//
//	go run ./examples/online_selftest
package main

import (
	"fmt"
	"log"

	"repro/internal/dsp"
	"repro/internal/isa"
	"repro/internal/online"
	"repro/internal/selftest"
)

// breakableProbe models a fault that appears at some point in the
// field: once broken, the multiplier's output bit 9 sticks.
type breakableProbe struct{ broken bool }

func (p *breakableProbe) Observe(comp dsp.Component, mode int, value uint32) uint32 {
	if p.broken && comp == dsp.CompMultiplier {
		return value | 1<<9
	}
	return value
}

func main() {
	// Characterize the self-test burst once ("at the factory").
	prog := selftest.PaperProgram()
	st, err := online.New(prog, online.Config{Iterations: 12})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(st)

	// Deploy: run workload chunks with a self-test burst between them.
	core := dsp.New()
	probe := &breakableProbe{}
	core.SetProbe(probe)

	sample := int8(0x10)
	for slot := 0; slot < 6; slot++ {
		if slot == 3 {
			probe.broken = true
			fmt.Println("  *** multiplier fault develops in the field ***")
		}
		// A chunk of functional work (one MAC, standing in for the FIR
		// inner loop of examples/fir_filter).
		core.StepInstr(isa.Instr{Op: isa.OpLdi, Imm: uint8(sample), RD: 1})
		core.Step(0)
		core.StepInstr(isa.Instr{Op: isa.OpMacP, Acc: isa.AccA, RA: 1, RB: 1, RD: 2})
		core.Step(0)
		core.Step(0)
		core.Step(0)
		workY := core.Reg(2)

		res, err := st.RunBurst(core)
		if err != nil {
			log.Fatal(err)
		}
		status := "PASS"
		if !res.Pass {
			status = "FAIL — core flagged faulty"
		}
		fmt.Printf("slot %d: workload y=%02x | self-test burst (%d cycles) signature %04x  %s\n",
			slot, workY, res.Cycles, res.Signature, status)
		if !res.Pass && !probe.broken {
			log.Fatal("false alarm on a healthy core")
		}
		if res.Pass && probe.broken {
			log.Fatal("burst missed the fault")
		}
	}
	fmt.Println("\nhealthy bursts never disturb the workload context; the first burst after")
	fmt.Println("the fault appears flags the core — with zero test access beyond the")
	fmt.Println("template LFSRs and the MISR of the paper's Figure 2.")
}
