package repro

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"hash"
	"math/rand"
	"os"
	"testing"

	"repro/internal/bist"
	"repro/internal/designs"
	"repro/internal/fault"
	"repro/internal/logic"
	"repro/internal/logic/logictest"
	"repro/internal/selftest"
)

const traceGoldenPath = "testdata/trace_golden.json"

// traceHashes accumulates one hash per quantity the golden pins.
type traceHashes map[string]hash.Hash

func (h traceHashes) add(key string, vals ...uint64) {
	if h[key] == nil {
		h[key] = sha256.New()
	}
	var b [8]byte
	for _, v := range vals {
		binary.LittleEndian.PutUint64(b[:], v)
		h[key].Write(b[:])
	}
}

// traceCase feeds the golden's quantities for one netlist into hs under
// prefix: the fault-free output trace, the output traces of up to 200
// faults taken at an even stride through the list, the fault-free and
// those faults' MISR signatures, and the robust path-delay result of
// every path LongestPaths traces back from a net (the longest ones alone
// are never robustly tested by these short streams).
func traceCase(t *testing.T, hs traceHashes, prefix string, n *logic.Netlist, faults []fault.Fault, vecs fault.Vectors) {
	t.Helper()
	hs.add(prefix+"/expected", fault.ExpectedOutputs(n, vecs)...)
	sig, err := selftest.Signature(n, vecs, selftest.SignatureOptions{})
	if err != nil {
		t.Fatal(err)
	}
	hs.add(prefix+"/signature", sig)
	stride := max(1, len(faults)/200)
	for i := 0; i < len(faults) && i/stride < 200; i += stride {
		f := faults[i]
		hs.add(prefix+"/fault_traces", fault.FaultTrace(n, vecs, f)...)
		sig, err := selftest.Signature(n, vecs, selftest.SignatureOptions{Fault: &f})
		if err != nil {
			t.Fatal(err)
		}
		hs.add(prefix+"/fault_signatures", sig)
	}
	pd, err := fault.SimulatePathDelay(n, vecs, fault.LongestPaths(n, n.NumNets()))
	if err != nil {
		t.Fatal(err)
	}
	for i := range pd.Paths {
		hs.add(prefix+"/path_delay", uint64(int64(pd.RisingAt[i])), uint64(int64(pd.FallingAt[i])))
	}
}

// TestTraceGolden holds every consumer of a single simulated machine's
// response — the tester's expected outputs, faulty output traces, MISR
// signatures, robust path-delay detection and the diagnosis ranking —
// to hashes written by the code that still ran them on the scalar
// simulator. It covers the branched DSP core, c880, a family core and
// 40 random sequential netlists, and the ranking BenchmarkDiagnose
// computes.
func TestTraceGolden(t *testing.T) {
	golden := map[string]string{}
	if !*update {
		raw, err := os.ReadFile(traceGoldenPath)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(raw, &golden); err != nil {
			t.Fatal(err)
		}
	}
	hs := traceHashes{}
	for _, id := range []string{"dsp", "bench/c880", "fam/w16r8s1l1p2"} {
		d, err := designs.Build(id)
		if err != nil {
			t.Fatal(err)
		}
		var vecs fault.Vectors
		if d.InstructionDriven() {
			vecs = bist.PseudorandomVectors(192, 1)
		} else {
			vecs = designs.PseudorandomVectors(len(d.Netlist.Inputs()), 192, 1)
		}
		traceCase(t, hs, id, d.Netlist, d.Faults, vecs)
	}
	rng := rand.New(rand.NewSource(25))
	for i := 0; i < 40; i++ {
		n, err := logictest.RandomNetlist(rng, i%2 == 1)
		if err != nil {
			t.Fatal(err)
		}
		vecs := designs.PseudorandomVectors(len(n.Inputs()), 64, uint64(i+1))
		traceCase(t, hs, "logictest", n, fault.AllFaults(n), vecs)
	}

	core, prog, _ := fixtures(t)
	vecs := selftest.Expand(prog, selftest.ExpandOptions{Iterations: 20})
	faults, _ := fault.Collapse(core.Netlist, fault.AllFaults(core.Netlist))
	observed := fault.FaultTrace(core.Netlist, vecs, faults[123])
	cands, err := fault.Diagnose(core.Netlist, vecs, observed, faults)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cands {
		exact := uint64(0)
		if c.ExactMatch {
			exact = 1
		}
		sa1 := uint64(0)
		if c.Fault.SA1 {
			sa1 = 1
		}
		hs.add("diagnose", uint64(c.Fault.Site), sa1, exact,
			uint64(c.MatchedFailures), uint64(c.MissedFailures), uint64(c.Mispredicts))
	}

	got := map[string]string{}
	for k, h := range hs {
		got[k] = hex.EncodeToString(h.Sum(nil))
	}
	if *update {
		raw, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(traceGoldenPath, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if len(got) != len(golden) {
		t.Errorf("%d quantities hashed, golden has %d", len(got), len(golden))
	}
	for k, want := range golden {
		if got[k] != want {
			t.Errorf("%s: hash %s, golden %s", k, got[k], want)
		}
	}
}
