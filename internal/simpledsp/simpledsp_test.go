package simpledsp

import (
	"math/rand"
	"testing"

	"repro/internal/logic/logictest"
)

func TestBehavioralSemantics(t *testing.T) {
	c := &Core{}
	// 2 * 3 = 6 (raw integer product into the accumulator).
	c.Step(OpAdd, 2, 3)
	if c.Acc != 6 {
		t.Fatalf("Acc = %d, want 6", c.Acc)
	}
	c.Step(OpAdd, 10, 10) // acc = 100 + 6
	if c.Acc != 106 {
		t.Fatalf("Acc = %d, want 106", c.Acc)
	}
	c.Step(OpSub, 2, 2) // acc = 4 - 106
	if got := int16(c.Acc); got != -102 {
		t.Fatalf("Acc = %d, want -102", got)
	}
	c.Step(OpClr, 99, 99)
	if c.Acc != 0 {
		t.Fatalf("Acc = %d after clear", c.Acc)
	}
	c.Step(OpAdd, 4, 4)
	c.Step(OpMac, 0, 0) // acc = 0 + (16 << 1)
	if c.Acc != 32 {
		t.Fatalf("Acc = %d, want 32", c.Acc)
	}
}

func TestGateMatchesBehavioral(t *testing.T) {
	n, aBus, bBus, opBus, err := BuildGate()
	if err != nil {
		t.Fatal(err)
	}
	sim := logictest.NewSimulator(n)
	beh := &Core{}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 3000; i++ {
		op := Op(rng.Intn(4))
		a, b := uint8(rng.Uint32()), uint8(rng.Uint32())
		out := beh.Step(op, a, b)
		sim.SetInputBus(aBus, uint64(a))
		sim.SetInputBus(bBus, uint64(b))
		sim.SetInputBus(opBus, uint64(op))
		sim.Step()
		sim.Settle()
		if got := uint8(sim.BusValue(n.Outputs()[0:0:0])); got != 0 {
			_ = got // outputs read below via named bus
		}
		var gateOut uint64
		for bit, o := range n.Outputs() {
			if sim.Value(o) {
				gateOut |= 1 << uint(bit)
			}
		}
		if uint8(gateOut) != out {
			t.Fatalf("step %d op=%v a=%d b=%d: gate %#x beh %#x (acc=%#x)",
				i, op, a, b, gateOut, out, beh.Acc)
		}
	}
}

func TestTable1Shape(t *testing.T) {
	tab := BuildTable(Config{CTrials: 4000, OGoodRuns: 30, Seed: 9})
	t.Logf("\n%s", tab.Render())
	cell := func(rowName string, comp Comp) Cell {
		for r, row := range tab.Rows {
			if row.Name() == rowName {
				return tab.Cells[r][comp]
			}
		}
		t.Fatalf("row %q missing", rowName)
		return Cell{}
	}
	// Paper Table 1 shape:
	// 1. Observability ≈0.99 everywhere except the multiplier under Clr.
	for _, rn := range []string{"Add 0", "Add R", "Sub 0", "Sub R", "Mac 0", "Mac R"} {
		if o := cell(rn, CompMult).O; o < 0.9 {
			t.Errorf("%s/Mult O = %.2f, want ≈0.99", rn, o)
		}
		if o := cell(rn, CompAcc).O; o < 0.9 {
			t.Errorf("%s/Acc O = %.2f, want ≈0.99", rn, o)
		}
	}
	// 2. Clr kills multiplier observability.
	if o := cell("Clr 0", CompMult).O; o != 0 {
		t.Errorf("Clr 0/Mult O = %.2f, want 0.00", o)
	}
	if o := cell("Clr R", CompMult).O; o != 0 {
		t.Errorf("Clr R/Mult O = %.2f, want 0.00", o)
	}
	// 3. Multiplier controllability is high (two independent random
	// operands).
	if c := cell("Add 0", CompMult).C; c < 0.95 {
		t.Errorf("Add 0/Mult C = %.2f, want ≈0.99", c)
	}
	// 4. Random accumulator state raises ALU controllability.
	if c0, cr := cell("Add 0", CompAdd).C, cell("Add R", CompAdd).C; cr <= c0 {
		t.Errorf("Add R ALU C (%.2f) should exceed Add 0 (%.2f)", cr, c0)
	}
	// 5. Mode columns: Add rows never exercise Sub/Clear and vice versa.
	if cell("Add 0", CompSub).Active || cell("Sub 0", CompAdd).Active || cell("Clr 0", CompAdd).Active {
		t.Error("mode column cross-contamination")
	}
}

func TestRowsAndNames(t *testing.T) {
	rows := Rows()
	if len(rows) != 8 {
		t.Fatalf("rows = %d, want 8", len(rows))
	}
	if rows[0].Name() != "Add 0" || rows[1].Name() != "Add R" {
		t.Fatalf("row names: %s, %s", rows[0].Name(), rows[1].Name())
	}
}
