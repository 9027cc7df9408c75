package logic_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/logic"
	"repro/internal/logic/logictest"
)

// exprNode is a tiny random expression-circuit generator used to
// property-test the simulators against direct recursive evaluation.
type exprNode struct {
	op       logic.GateKind // And, Or, Xor, Not, Mux2, or GateInput for a leaf
	children []*exprNode
	input    int // leaf index into the input vector
}

func randExpr(rng *rand.Rand, depth, numInputs int) *exprNode {
	if depth == 0 || rng.Intn(4) == 0 {
		return &exprNode{op: logic.GateInput, input: rng.Intn(numInputs)}
	}
	switch rng.Intn(5) {
	case 0:
		return &exprNode{op: logic.GateNot, children: []*exprNode{randExpr(rng, depth-1, numInputs)}}
	case 1:
		return &exprNode{op: logic.GateAnd, children: []*exprNode{randExpr(rng, depth-1, numInputs), randExpr(rng, depth-1, numInputs)}}
	case 2:
		return &exprNode{op: logic.GateOr, children: []*exprNode{randExpr(rng, depth-1, numInputs), randExpr(rng, depth-1, numInputs)}}
	case 3:
		return &exprNode{op: logic.GateXor, children: []*exprNode{randExpr(rng, depth-1, numInputs), randExpr(rng, depth-1, numInputs)}}
	default:
		return &exprNode{op: logic.GateMux2, children: []*exprNode{
			randExpr(rng, depth-1, numInputs), randExpr(rng, depth-1, numInputs), randExpr(rng, depth-1, numInputs)}}
	}
}

func (e *exprNode) evalDirect(inputs []bool) bool {
	switch e.op {
	case logic.GateInput:
		return inputs[e.input]
	case logic.GateNot:
		return !e.children[0].evalDirect(inputs)
	case logic.GateAnd:
		return e.children[0].evalDirect(inputs) && e.children[1].evalDirect(inputs)
	case logic.GateOr:
		return e.children[0].evalDirect(inputs) || e.children[1].evalDirect(inputs)
	case logic.GateXor:
		return e.children[0].evalDirect(inputs) != e.children[1].evalDirect(inputs)
	case logic.GateMux2:
		if e.children[0].evalDirect(inputs) {
			return e.children[2].evalDirect(inputs)
		}
		return e.children[1].evalDirect(inputs)
	}
	panic("unreachable")
}

func (e *exprNode) emit(b *logic.Builder, ins logic.Bus) logic.NetID {
	switch e.op {
	case logic.GateInput:
		return ins[e.input]
	case logic.GateNot:
		return b.Not(e.children[0].emit(b, ins))
	case logic.GateAnd:
		return b.And(e.children[0].emit(b, ins), e.children[1].emit(b, ins))
	case logic.GateOr:
		return b.Or(e.children[0].emit(b, ins), e.children[1].emit(b, ins))
	case logic.GateXor:
		return b.Xor(e.children[0].emit(b, ins), e.children[1].emit(b, ins))
	case logic.GateMux2:
		return b.Mux2(e.children[0].emit(b, ins), e.children[1].emit(b, ins), e.children[2].emit(b, ins))
	}
	panic("unreachable")
}

// TestQuickRandomCircuits checks that for random expression circuits and
// random input vectors, the scalar simulator, the compiled 64-lane
// simulator (every lane), and direct recursive evaluation all agree —
// with and without fanout-branch insertion.
func TestQuickRandomCircuits(t *testing.T) {
	const numInputs = 6
	f := func(seed int64, assignment uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		expr := randExpr(rng, 5, numInputs)
		for _, branches := range []bool{false, true} {
			b := logic.NewBuilder()
			ins := b.InputBus("in", numInputs)
			out := b.MarkOutput(expr.emit(b, ins), "out")
			n, err := b.Build(logic.BuildOptions{InsertFanoutBranches: branches})
			if err != nil {
				t.Logf("build failed: %v", err)
				return false
			}
			inputs := make([]bool, numInputs)
			for i := range inputs {
				inputs[i] = assignment>>uint(i)&1 == 1
			}
			want := expr.evalDirect(inputs)
			s := logictest.NewSimulator(n)
			s.SetInputBus(ins, uint64(assignment)&((1<<numInputs)-1))
			s.Settle()
			if s.Value(out) != want {
				t.Logf("scalar mismatch: seed=%d assign=%b branches=%v", seed, assignment, branches)
				return false
			}
			w := logic.NewCompiledSim(logic.Compile(n))
			setInputBus(w, ins, uint64(assignment)&((1<<numInputs)-1))
			w.Settle()
			word := w.Word(out)
			wantWord := uint64(0)
			if want {
				wantWord = ^uint64(0)
			}
			if word != wantWord {
				t.Logf("word mismatch: seed=%d assign=%b branches=%v word=%016x", seed, assignment, branches, word)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickInjectionOnlyAffectsLane checks the core fault-sim invariant:
// injecting a stuck-at into lane L never disturbs any other lane.
func TestQuickInjectionOnlyAffectsLane(t *testing.T) {
	const numInputs = 6
	f := func(seed int64, assignment uint8, laneRaw uint8, sa1 bool) bool {
		lane := uint(laneRaw%63) + 1
		rng := rand.New(rand.NewSource(seed))
		expr := randExpr(rng, 5, numInputs)
		b := logic.NewBuilder()
		ins := b.InputBus("in", numInputs)
		out := b.MarkOutput(expr.emit(b, ins), "out")
		n, err := b.Build(logic.BuildOptions{InsertFanoutBranches: true})
		if err != nil {
			return false
		}
		target := logic.NetID(rng.Intn(n.NumNets()))
		w := logic.NewCompiledSim(logic.Compile(n))
		w.Inject(target, sa1, lane)
		setInputBus(w, ins, uint64(assignment)&((1<<numInputs)-1))
		w.Settle()
		word := w.Word(out)
		// All lanes except `lane` must equal lane 0.
		ref := uint64(0)
		if word&1 == 1 {
			ref = ^uint64(0)
		}
		mismatches := (word ^ ref) &^ (1 << lane)
		return mismatches == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
