package main

import (
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain runs the command instead of the tests when the test binary
// is re-executed with FAULTSIM_ARGS set, so a test can drive faultsim
// end to end.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv("FAULTSIM_ARGS"); ok {
		os.Args = append([]string{"faultsim"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestCurvePrintsEachLengthOnce: with a power-of-two vector count the
// curve's doubling sweep lands on the run's length, which the curve's
// closing point also prints. The point must appear once.
func TestCurvePrintsEachLengthOnce(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-test.run=^$")
	cmd.Env = append(os.Environ(), "FAULTSIM_ARGS=-design bench/c432 -bist -count 1024 -curve")
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("faultsim: %v\n%s", err, out)
	}
	_, curve, ok := strings.Cut(string(out), "coverage vs vectors:\n")
	if !ok {
		t.Fatalf("no curve in the output:\n%s", out)
	}
	var lengths []string
	for _, line := range strings.Split(strings.TrimSpace(curve), "\n") {
		lengths = append(lengths, strings.Fields(line)[0])
	}
	if strings.Join(lengths, " ") != "1024" {
		t.Errorf("curve prints lengths %v, want [1024]:\n%s", lengths, curve)
	}
}
