package repro

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

// perfFile is a committed performance record, docs/perf/issue-NN.json:
// every benchmark run behind a change's claims, copied from the result
// files bench/run.sh writes, and the claims those runs must bear out.
type perfFile struct {
	Claims []perfClaim `json:"claims"`
	// Reported names metrics the change reports without claiming a gain.
	// The test only requires every run to carry them.
	Reported []perfClaim `json:"reported"`
	Runs     []perfRun   `json:"runs"`
}

// perfClaim is a gain claimed on one workload's metric.
type perfClaim struct {
	Workload string `json:"workload"`
	Metric   string `json:"metric"`
	// Better is "lower" or "higher".
	Better string `json:"better"`
}

// perfRun is one benchmark run: which commit and side ("parent" or
// "change"), the seed that pairs it with a run of the other side, the
// flags, the gated end-to-end metrics, and the run's verdict.
type perfRun struct {
	Commit   string             `json:"commit"`
	Side     string             `json:"side"`
	Seed     int64              `json:"seed"`
	Workload string             `json:"workload"`
	Flags    string             `json:"flags"`
	Metrics  map[string]float64 `json:"metrics"`
	Correct  bool               `json:"correct"`
	Failed   int                `json:"failed"`
}

// TestPerfClaims recomputes every claim in docs/perf by the repository's
// rule for a gain: at least ten parent/change pairs (one run of each
// side per seed, same flags), the change better in at least nine tenths
// of them with ties counting for neither, the medians further apart
// than the distance between the parent's quartiles, and every run
// correct with no failed operation.
func TestPerfClaims(t *testing.T) {
	paths, err := filepath.Glob("docs/perf/*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no perf files under docs/perf")
	}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var pf perfFile
		if err := json.Unmarshal(data, &pf); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if len(pf.Claims) == 0 {
			t.Errorf("%s: no claims", path)
		}
		for _, r := range pf.Runs {
			if !r.Correct || r.Failed != 0 {
				t.Errorf("%s: %s seed %d: correct=%v failed=%d", path, r.Side, r.Seed, r.Correct, r.Failed)
			}
			for _, c := range append(pf.Claims, pf.Reported...) {
				if _, ok := r.Metrics[c.Metric]; c.Workload == r.Workload && !ok {
					t.Errorf("%s: %s seed %d has no %s", path, r.Side, r.Seed, c.Metric)
				}
			}
		}
		for _, c := range pf.Claims {
			if err := checkClaim(c, pf.Runs); err != nil {
				t.Errorf("%s: %s %s: %v", path, c.Workload, c.Metric, err)
			}
		}
	}
}

// checkClaim applies the gain rule to one claim.
func checkClaim(c perfClaim, runs []perfRun) error {
	if c.Better != "lower" && c.Better != "higher" {
		return fmt.Errorf("better is %q, want lower or higher", c.Better)
	}
	// gain is how much better b reads than a.
	gain := func(a, b float64) float64 {
		if c.Better == "lower" {
			return a - b
		}
		return b - a
	}
	bySeed := map[int64]map[string]perfRun{}
	for _, r := range runs {
		if r.Workload != c.Workload {
			continue
		}
		if r.Side != "parent" && r.Side != "change" {
			return fmt.Errorf("seed %d: side %q", r.Seed, r.Side)
		}
		if bySeed[r.Seed] == nil {
			bySeed[r.Seed] = map[string]perfRun{}
		}
		if _, dup := bySeed[r.Seed][r.Side]; dup {
			return fmt.Errorf("seed %d has two %s runs", r.Seed, r.Side)
		}
		bySeed[r.Seed][r.Side] = r
	}
	var parent, change []float64
	wins := 0
	for seed, pair := range bySeed {
		p, okP := pair["parent"]
		ch, okC := pair["change"]
		if !okP || !okC {
			return fmt.Errorf("seed %d is not a pair", seed)
		}
		if p.Flags != ch.Flags || p.Commit == ch.Commit {
			return fmt.Errorf("seed %d pairs flags %q / %q, commits %s / %s", seed, p.Flags, ch.Flags, p.Commit, ch.Commit)
		}
		pv, cv := p.Metrics[c.Metric], ch.Metrics[c.Metric]
		parent, change = append(parent, pv), append(change, cv)
		if gain(pv, cv) > 0 {
			wins++
		}
	}
	pairs := len(bySeed)
	if pairs < 10 {
		return fmt.Errorf("%d pairs, want at least 10", pairs)
	}
	if 10*wins < 9*pairs {
		return fmt.Errorf("change better in %d of %d pairs, want nine tenths", wins, pairs)
	}
	gap := gain(quantile(parent, 0.5), quantile(change, 0.5))
	iqr := quantile(parent, 0.75) - quantile(parent, 0.25)
	if gap <= iqr {
		return fmt.Errorf("medians %.4g (parent) and %.4g (change) are %.4g apart in the claimed direction, not more than the parent's IQR %.4g",
			quantile(parent, 0.5), quantile(change, 0.5), gap, iqr)
	}
	return nil
}

// quantile interpolates linearly between the closest ranks of xs.
func quantile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
