package selftest

import (
	"flag"
	"os"
	"testing"

	"repro/internal/metrics"
)

var updatePaper = flag.Bool("update", false, "rewrite paper.prog from the generator")

// paperConfig is the metrics configuration E4 generates the paper's
// program with.
var paperConfig = metrics.Config{CTrials: 200000, OGoodRuns: 120, Seed: 1}

const paperHeader = `// The paper's self-test program: the metrics-driven generator's output
// for metrics.Config{CTrials: 200000, OGoodRuns: 120, Seed: 1}, the
// configuration of experiment E4. selftest.PaperProgram embeds it;
// TestPaperProgramRegenerates requires it byte for byte. Rewrite it with
//   go test ./internal/selftest -run TestPaperProgramRegenerates -update
`

// TestPaperProgramRegenerates regenerates the paper's program at full
// scale and requires the committed paper.prog byte for byte.
func TestPaperProgramRegenerates(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale metrics table")
	}
	prog, _ := NewGenerator(metrics.NewEngine(paperConfig)).Generate()
	want := paperHeader + prog.Source()
	if *updatePaper {
		if err := os.WriteFile("paper.prog", []byte(want), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile("paper.prog")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != want {
		t.Fatalf("paper.prog differs from the generator's program; want:\n%s", want)
	}
	parsed, err := ParseProgram(string(got))
	if err != nil {
		t.Fatal(err)
	}
	a := Expand(prog, ExpandOptions{Iterations: 3, Seed1: 5, Seed2: 9})
	b := Expand(parsed, ExpandOptions{Iterations: 3, Seed1: 5, Seed2: 9})
	if len(a) != len(b) {
		t.Fatalf("expansion lengths %d and %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("vector %d differs between the generated and the parsed program", i)
		}
	}
}
