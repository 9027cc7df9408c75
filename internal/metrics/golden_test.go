package metrics_test

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/internal/selftest"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/table_golden.txt from the current code")

// goldenConfigs are the engine configurations whose tables and generated
// programs are pinned bit for bit: the benchmark's paper_flow op, the
// benchmark's warm-up / kernel_zoo program, and `experiments -quick`.
var goldenConfigs = []metrics.Config{
	{CTrials: 6000, OGoodRuns: 4, Seed: 33},
	{CTrials: 500, OGoodRuns: 1, Seed: 33},
	{CTrials: 12000, OGoodRuns: 8, Seed: 1},
}

func cellLine(c metrics.Cell) string {
	return fmt.Sprintf("%t %016x %016x %d %d %d",
		c.Active, math.Float64bits(c.C), math.Float64bits(c.O), c.CSamples, c.Injections, c.Detections)
}

// renderGolden builds the table and the program for one configuration
// and prints everything the generator's decisions depend on.
func renderGolden(cfg metrics.Config) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== ctrials=%d ogood=%d seed=%d\n", cfg.CTrials, cfg.OGoodRuns, cfg.Seed)
	prog, rep := selftest.NewGenerator(metrics.NewEngine(cfg)).Generate()
	t := rep.Table
	for r, row := range t.Rows {
		for c, col := range t.Cols {
			fmt.Fprintf(&sb, "cell %s / %s: %s\n", row.Name, col.Label(), cellLine(t.Cells[r][c]))
		}
	}
	for _, vs := range rep.Phase2.Sequences {
		fmt.Fprintf(&sb, "phase2 %s: %s\n", t.Cols[vs.Col].Label(), cellLine(vs.Cell))
	}
	sb.WriteString(rep.Summary())
	for i, in := range prog.Loop {
		fmt.Fprintf(&sb, "instr %d %05x\n", i, in.Encode())
	}
	return sb.String()
}

// TestTableGolden compares every table cell (float bits included), the
// derivation summary and the program encoding with a file written by
// the commit before the engine's hot path was rewritten.
func TestTableGolden(t *testing.T) {
	path := filepath.Join("testdata", "table_golden.txt")
	var sb strings.Builder
	for _, cfg := range goldenConfigs {
		sb.WriteString(renderGolden(cfg))
	}
	got := sb.String()
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	if len(gl) != len(wl) {
		t.Fatalf("golden has %d lines, got %d", len(wl), len(gl))
	}
	for i := range gl {
		if gl[i] != wl[i] {
			t.Fatalf("line %d differs\n got: %s\nwant: %s", i+1, gl[i], wl[i])
		}
	}
}
