package logic_test

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/logic"
	"repro/internal/logic/logictest"
)

// benchTestCircuit builds a small sequential circuit that exercises
// every lowering path WriteBench has: n-ary gates, NOT/BUFF, a mux, a
// live constant, DFF feedback and fanout-branch buffers.
func benchTestCircuit(t *testing.T) *logic.Netlist {
	t.Helper()
	b := logic.NewBuilder()
	a := b.Input("a")
	x := b.Input("x")
	y := b.Input("y")
	s := b.Xor(a, x, y)
	q := b.DFF(b.Mux2(a, s, b.Const(true)), "state")
	carry := b.Or(b.And(a, x), b.And(x, y), b.And(a, y))
	b.MarkOutput(b.Xnor(q, carry), "sum")
	b.MarkOutput(b.Nand(q, b.Not(carry)), "flag")
	n, err := b.Build(logic.BuildOptions{InsertFanoutBranches: true})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestBenchRoundTrip: netlist → WriteBench → ReadBench must preserve
// function. The reimported netlist's scalar Simulator and CompiledSim
// outputs are bit-identical to the original netlist's scalar Simulator
// over random vectors, cycle by cycle.
func TestBenchRoundTrip(t *testing.T) {
	orig := benchTestCircuit(t)
	var sb strings.Builder
	if err := logic.WriteBench(&sb, orig, "roundtrip"); err != nil {
		t.Fatal(err)
	}
	re, err := logic.ReadBench(strings.NewReader(sb.String()), logic.BuildOptions{InsertFanoutBranches: true})
	if err != nil {
		t.Fatalf("ReadBench of exported netlist: %v\n%s", err, sb.String())
	}
	if got, want := len(re.Inputs()), len(orig.Inputs()); got != want {
		t.Fatalf("reimported %d inputs, want %d", got, want)
	}
	if got, want := len(re.Outputs()), len(orig.Outputs()); got != want {
		t.Fatalf("reimported %d outputs, want %d", got, want)
	}

	sOrig := logictest.NewSimulator(orig)
	sRe := logictest.NewSimulator(re)
	csRe := logic.NewCompiledSim(logic.Compile(re))
	rng := rand.New(rand.NewSource(11))
	for cycle := 0; cycle < 300; cycle++ {
		word := rng.Uint64()
		for i := range orig.Inputs() {
			bit := word>>uint(i)&1 == 1
			sOrig.SetInput(orig.Inputs()[i], bit)
			sRe.SetInput(re.Inputs()[i], bit)
			csRe.SetInput(re.Inputs()[i], bit)
		}
		sOrig.Settle()
		sRe.Settle()
		csRe.Settle()
		for i := range orig.Outputs() {
			want := sOrig.Value(orig.Outputs()[i])
			gotS := sRe.Value(re.Outputs()[i])
			gotCS := csRe.Word(re.Outputs()[i])&1 == 1
			if gotS != want || gotCS != want {
				t.Fatalf("cycle %d output %d: original=%v reimported Simulator=%v CompiledSim=%v",
					cycle, i, want, gotS, gotCS)
			}
		}
		sOrig.ClockAfterSettle()
		sRe.ClockAfterSettle()
		csRe.ClockAfterSettle()
	}
}

// TestReadBenchSequentialFeedback: a DFF whose D input is defined after
// the DFF line and closes a feedback loop through the state bits — the
// s27 shape — must parse and simulate.
func TestReadBenchSequentialFeedback(t *testing.T) {
	src := `
# toggle-ish loop
INPUT(en)
OUTPUT(q)
q = DFF(d)
nq = NOT(q)
d = AND(en, nq)
`
	n, err := logic.ReadBench(strings.NewReader(src), logic.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cs := logic.NewCompiledSim(logic.Compile(n))
	cs.SetInput(n.Inputs()[0], true)
	var seen []uint64
	for i := 0; i < 4; i++ {
		cs.Settle()
		seen = append(seen, cs.Word(n.Outputs()[0])&1)
		cs.ClockAfterSettle()
	}
	want := []uint64{0, 1, 0, 1}
	for i := range want {
		if seen[i] != want[i] {
			t.Fatalf("toggle sequence %v, want %v", seen, want)
		}
	}
}

// TestReadBenchErrors pins the parser's rejection paths.
func TestReadBenchErrors(t *testing.T) {
	for name, src := range map[string]string{
		"comb loop":        "INPUT(a)\nOUTPUT(x)\nx = AND(a, y)\ny = BUFF(x)\n",
		"undefined signal": "INPUT(a)\nOUTPUT(x)\nx = AND(a, ghost)\n",
		"redefined":        "INPUT(a)\nOUTPUT(x)\nx = NOT(a)\nx = BUFF(a)\n",
		"input and gate":   "INPUT(a)\nOUTPUT(a)\na = NOT(a)\n",
		"unknown gate":     "INPUT(a)\nOUTPUT(x)\nx = FROB(a)\n",
		"dff arity":        "INPUT(a)\nOUTPUT(x)\nx = DFF(a, a)\n",
		"not arity":        "INPUT(a)\nOUTPUT(x)\nx = NOT(a, a)\n",
		"undefined output": "INPUT(a)\nOUTPUT(ghost)\nx = NOT(a)\n",
		"empty":            "# nothing here\n",
		"malformed":        "INPUT(a)\nwat\n",
	} {
		if _, err := logic.ReadBench(strings.NewReader(src), logic.BuildOptions{}); err == nil {
			t.Errorf("%s: ReadBench accepted invalid input", name)
		}
	}
}

// TestReadBenchInputAsOutput: OUTPUT of a raw INPUT gets an aliased
// port name instead of failing on the duplicate.
func TestReadBenchInputAsOutput(t *testing.T) {
	n, err := logic.ReadBench(strings.NewReader("INPUT(a)\nOUTPUT(a)\nx = NOT(a)\n"), logic.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(n.Outputs()) != 1 {
		t.Fatalf("want 1 output, got %d", len(n.Outputs()))
	}
	if got := n.NameOf(n.Outputs()[0]); got != "a_out" {
		t.Fatalf("aliased output name %q, want a_out", got)
	}
}

// TestExportNamesNoSilentAlias: sanitization maps distinct source names
// onto one identifier ("a.b" and "a:b" both sanitize to "a_b"), and a
// literal source name can occupy the deduplication target itself. Every
// net must still end up with a unique exported name — the old suffixing
// scheme silently aliased the third case.
func TestExportNamesNoSilentAlias(t *testing.T) {
	b := logic.NewBuilder()
	b.Input("a.b") // sanitizes to a_b
	x := b.Input("dummy")
	// The net id of the next input is 4 (const0, const1, a.b, dummy
	// precede it), so "a:b" dedupes to a_b_4 — which this input's name
	// deliberately occupies.
	b.Input("a_b_4")
	collide := b.Input("a:b")
	b.MarkOutput(b.And(x, collide), "out")
	n, err := b.Build(logic.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	names := logic.ExportNames(n, "clk", "rst")
	seen := map[string]logic.NetID{}
	for id, name := range names {
		if prev, dup := seen[name]; dup {
			t.Fatalf("nets %d and %d both exported as %q", prev, id, name)
		}
		seen[name] = logic.NetID(id)
	}
	var sb strings.Builder
	if err := logic.WriteVerilog(&sb, n, "collide"); err != nil {
		t.Fatal(err)
	}
}

// FuzzReadBench: arbitrary bytes must never panic the parser or the
// builder behind it; valid files must round-trip through WriteBench.
func FuzzReadBench(f *testing.F) {
	f.Add("INPUT(a)\nOUTPUT(x)\nx = NOT(a)\n")
	f.Add("INPUT(G0)\nINPUT(G1)\nOUTPUT(G17)\nG17 = NAND(G0, G1)\n")
	f.Add("# s27-ish\nINPUT(en)\nOUTPUT(q)\nq = DFF(d)\nnq = NOT(q)\nd = AND(en, nq)\n")
	f.Add("x = AND(a\nINPUT(()\nOUTPUT\n= NOT(x)\n")
	f.Add(strings.Repeat("INPUT(a)\n", 3))
	f.Fuzz(func(t *testing.T, src string) {
		n, err := logic.ReadBench(strings.NewReader(src), logic.BuildOptions{})
		if err != nil || n == nil {
			return
		}
		var sb strings.Builder
		if err := logic.WriteBench(&sb, n, "fuzz"); err != nil {
			t.Fatalf("WriteBench of a ReadBench-accepted netlist: %v", err)
		}
		if _, err := logic.ReadBench(strings.NewReader(sb.String()), logic.BuildOptions{}); err != nil {
			t.Fatalf("re-import of exported netlist: %v\n%s", err, sb.String())
		}
	})
}
