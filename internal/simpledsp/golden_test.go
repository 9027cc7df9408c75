package simpledsp

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/table1_golden.txt from the current code")

// TestTable1Golden pins every Table 1 cell, float bits included, at the
// sizes BenchmarkTable1Metrics and TestTable1Shape use. The file was
// written by the commit before the observability trials stopped
// re-seeding a generator per injection.
func TestTable1Golden(t *testing.T) {
	var sb strings.Builder
	for _, cfg := range []Config{{CTrials: 2000, OGoodRuns: 20, Seed: 9}, {CTrials: 4000, OGoodRuns: 30, Seed: 9}} {
		fmt.Fprintf(&sb, "== ctrials=%d ogood=%d seed=%d\n", cfg.CTrials, cfg.OGoodRuns, cfg.Seed)
		tab := BuildTable(cfg)
		for r, row := range tab.Rows {
			for c, comp := range tab.Cols {
				cell := tab.Cells[r][c]
				fmt.Fprintf(&sb, "%s / %s: %t %016x %016x\n", row.Name(), comp,
					cell.Active, math.Float64bits(cell.C), math.Float64bits(cell.O))
			}
		}
	}
	path := filepath.Join("testdata", "table1_golden.txt")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got, wl := strings.Split(sb.String(), "\n"), strings.Split(string(want), "\n")
	if len(got) != len(wl) {
		t.Fatalf("golden has %d lines, got %d", len(wl), len(got))
	}
	for i := range got {
		if got[i] != wl[i] {
			t.Fatalf("line %d differs\n got: %s\nwant: %s", i+1, got[i], wl[i])
		}
	}
}
