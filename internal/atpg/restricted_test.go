package atpg

import (
	"math/rand"
	"testing"

	"repro/internal/fault"
	"repro/internal/logic"
	"repro/internal/logic/logictest"
)

// TestBacktraceTriesEveryPath is the false-untestable repro: the first
// D-frontier gate (o1) can only be advanced through h = XOR(u, c), and u
// may not be assigned, so that path dead-ends — but a=1, e=0 detects the
// fault at o2.
func TestBacktraceTriesEveryPath(t *testing.T) {
	b := logic.NewBuilder()
	a, u, c, e := b.Input("a"), b.Input("u"), b.Input("c"), b.Input("e")
	h := b.Xor(u, c)
	b.MarkOutput(b.And(a, h), "o1")
	b.MarkOutput(b.Or(a, b.Buf(b.Buf(b.Buf(e, ""), ""), "")), "o2")
	n, err := b.Build(logic.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res := Generate(n, fault.Fault{Site: a}, Options{PIs: []logic.NetID{a, c, e}})
	if res.Status != Detected {
		t.Fatalf("a/sa0 with u unassignable: %v, want detected", res.Status)
	}
	if !res.Assignment[a] || res.Assignment[e] {
		t.Fatalf("assignment %v, want a=1 e=0", res.Assignment)
	}
}

// sweepDetects reports whether assign puts a D or D̄ on an observation
// point, by five-valued simulation with the unassigned, unfixed sources
// at X.
func sweepDetects(n *logic.Netlist, f fault.Fault, opts Options, extra []logic.NetID, assign map[logic.NetID]bool) bool {
	siteSet := make([]bool, n.NumNets())
	siteSet[f.Site] = true
	for _, s := range extra {
		siteSet[s] = true
	}
	ref := fullSweep(n, opts.Fixed, assign, siteSet, f.SA1)
	ref.observe = opts.Observe
	return ref.detected()
}

// bruteDetectable reports whether some assignment of opts.PIs detects
// the fault, trying every one.
func bruteDetectable(n *logic.Netlist, f fault.Fault, opts Options, extra []logic.NetID) bool {
	for v := 0; v < 1<<len(opts.PIs); v++ {
		assign := map[logic.NetID]bool{}
		for i, pi := range opts.PIs {
			assign[pi] = v>>i&1 == 1
		}
		if sweepDetects(n, f, opts, extra, assign) {
			return true
		}
	}
	return false
}

// TestPODEMAgainstBruteForceRestricted holds the verdicts to exhaustive
// five-valued simulation on random netlists where a random subset of the
// sources may be assigned, some are fixed, the rest stay X, and the
// fault may sit at a second site: Untestable exactly when no assignment
// of the assignable sources detects, and every returned test detects.
func TestPODEMAgainstBruteForceRestricted(t *testing.T) {
	runs, untestable := 0, 0
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(1000 + seed))
		n, err := logictest.RandomNetlist(rng, seed%2 == 1)
		if err != nil {
			t.Fatal(err)
		}
		opts := FullScan(n) // at most 6 inputs + 4 flip-flops
		opts.MaxBacktracks = 1 << 12
		sources := opts.PIs
		opts.PIs = nil
		opts.Fixed = map[logic.NetID]bool{}
		for _, src := range sources {
			switch rng.Intn(4) {
			case 0: // stays X
			case 1:
				opts.Fixed[src] = rng.Intn(2) == 1
			default:
				opts.PIs = append(opts.PIs, src)
			}
		}
		if len(opts.PIs) == 0 {
			opts.PIs = sources[:1]
			delete(opts.Fixed, sources[0])
		}
		s := NewSolver(n, opts)
		for _, f := range fault.AllFaults(n) {
			var extra []logic.NetID
			if rng.Intn(3) == 0 {
				extra = append(extra, logic.NetID(rng.Intn(n.NumNets())))
			}
			res := s.Generate(f, extra...)
			want := bruteDetectable(n, f, opts, extra)
			runs++
			switch res.Status {
			case Detected:
				if !sweepDetects(n, f, opts, extra, res.Assignment) {
					t.Fatalf("seed %d fault %v extra %v: test %v does not detect", seed, f, extra, res.Assignment)
				}
			case Untestable:
				untestable++
				if want {
					t.Fatalf("seed %d fault %v extra %v PIs %v fixed %v: untestable, but brute force finds a test",
						seed, f, extra, opts.PIs, opts.Fixed)
				}
			case Aborted:
				t.Fatalf("seed %d fault %v: aborted within 2^12 backtracks on at most 10 PIs", seed, f)
			}
			if want && res.Status != Detected {
				t.Fatalf("seed %d fault %v: %v, but brute force finds a test", seed, f, res.Status)
			}
		}
	}
	if untestable == 0 || untestable == runs {
		t.Fatalf("%d of %d runs untestable: the fixture does not exercise both verdicts", untestable, runs)
	}
}
