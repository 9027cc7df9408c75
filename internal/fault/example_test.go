package fault_test

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/logic"
)

// Example runs stuck-at fault simulation on a tiny circuit and prints
// its coverage: the end-to-end flow every experiment in this repository
// builds on.
func Example() {
	b := logic.NewBuilder()
	x := b.Input("x")
	y := b.Input("y")
	b.MarkOutput(b.And(x, y), "out")
	n, err := b.Build(logic.BuildOptions{InsertFanoutBranches: true})
	if err != nil {
		panic(err)
	}
	// Exhaustive two-input vectors detect every collapsed fault.
	res, err := fault.Simulate(n, fault.Vectors{0b00, 0b01, 0b10, 0b11}, fault.SimOptions{})
	if err != nil {
		panic(err)
	}
	fmt.Printf("coverage: %.0f%% of %d faults\n", 100*res.Coverage(), len(res.Faults))
	// Output:
	// coverage: 100% of 4 faults
}

// ExampleDiagnoseOpts shows cause-effect diagnosis: given only a failing
// output trace, the true fault ranks first with an exact match.
func ExampleDiagnoseOpts() {
	b := logic.NewBuilder()
	x := b.Input("x")
	y := b.Input("y")
	a := b.And(x, y)
	o := b.Or(x, y)
	b.MarkOutput(a, "and")
	b.MarkOutput(o, "or")
	n, err := b.Build(logic.BuildOptions{})
	if err != nil {
		panic(err)
	}
	vecs := fault.Vectors{0b00, 0b01, 0b10, 0b11}
	hidden := fault.Fault{Site: a, SA1: true}
	observed := fault.FaultTrace(n, vecs, hidden)

	cands, err := fault.DiagnoseOpts(n, vecs, observed, nil, fault.DiagnoseOptions{})
	if err != nil {
		panic(err)
	}
	fmt.Printf("top candidate exact match: %v\n", cands[0].ExactMatch)
	fmt.Printf("true fault found: %v\n", cands[0].Fault == hidden)
	// Output:
	// top candidate exact match: true
	// true fault found: true
}
