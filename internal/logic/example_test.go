package logic_test

import (
	"fmt"

	"repro/internal/logic"
)

// Example builds a two-bit equality comparator and simulates it on
// lane 0, the fault-free machine.
func Example() {
	b := logic.NewBuilder()
	a := b.InputBus("a", 2)
	x := b.InputBus("x", 2)
	eq := b.And(b.Xnor(a[0], x[0]), b.Xnor(a[1], x[1]))
	out := b.MarkOutput(eq, "eq")
	n, err := b.Build(logic.BuildOptions{})
	if err != nil {
		panic(err)
	}
	s := logic.NewCompiledSim(logic.Compile(n))
	for _, pair := range [][2]uint64{{1, 1}, {2, 3}} {
		for i := range a {
			s.SetInput(a[i], pair[0]>>uint(i)&1 == 1)
			s.SetInput(x[i], pair[1]>>uint(i)&1 == 1)
		}
		s.Settle()
		fmt.Printf("%d==%d: %v\n", pair[0], pair[1], s.Word(out)&1 == 1) // lane 0
	}
	// Output:
	// 1==1: true
	// 2==3: false
}

// ExampleCompiledSim shows fault injection into one of the 64 parallel
// machine lanes — the primitive the stuck-at fault simulator is built
// on.
func ExampleCompiledSim() {
	b := logic.NewBuilder()
	x := b.Input("x")
	y := b.Input("y")
	out := b.MarkOutput(b.And(x, y), "out")
	n, _ := b.Build(logic.BuildOptions{})

	w := logic.NewCompiledSim(logic.Compile(n))
	w.Inject(out, true, 5) // stuck-at-1 in lane 5
	w.SetInput(x, true)
	w.SetInput(y, false) // good machine: AND = 0
	w.Settle()
	fmt.Printf("lanes differing from the good machine: %#x\n", w.OutputDiff())
	// Output:
	// lanes differing from the good machine: 0x20
}
