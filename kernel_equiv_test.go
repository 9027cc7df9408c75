package repro

import (
	"testing"

	"repro/internal/bist"
	"repro/internal/dspgate"
	"repro/internal/fault"
)

// TestKernelEquivalenceFullCore pins the PR-3 acceptance criterion: the
// compiled event-driven kernel must produce a bit-identical fault.Result
// (DetectedAt, Detections, Coverage) to the full-sweep reference kernel on
// the full dspgate core fault list, for both netlist variants (with and
// without fanout branches — Q-site and branch-site faults exercise the
// injection-reapply path). The kernels run with their own default
// segmentation (the compiled kernel's adaptive schedule vs the reference
// fixed segments), so this also pins segment-length invariance.
func TestKernelEquivalenceFullCore(t *testing.T) {
	vectors := 2048
	if testing.Short() {
		vectors = 512
	}
	for _, fb := range []bool{false, true} {
		core, err := dspgate.Build(dspgate.Options{InsertFanoutBranches: fb})
		if err != nil {
			t.Fatal(err)
		}
		n := core.Netlist
		faults, _ := fault.Collapse(n, fault.AllFaults(n))
		vecs := bist.PseudorandomVectors(vectors, 1)
		ref, err := fault.Simulate(n, vecs, fault.SimOptions{
			Faults: faults, NDetect: 3, Kernel: fault.KernelReference,
		})
		if err != nil {
			t.Fatal(err)
		}
		cmp, err := fault.Simulate(n, vecs, fault.SimOptions{
			Faults: faults, NDetect: 3, Kernel: fault.KernelCompiled,
		})
		if err != nil {
			t.Fatal(err)
		}
		bad := 0
		for i := range faults {
			if ref.DetectedAt[i] != cmp.DetectedAt[i] || ref.Detections[i] != cmp.Detections[i] {
				if bad < 8 {
					t.Errorf("fb=%v fault %d site=%d sa1=%v: ref cycle=%d n=%d, compiled cycle=%d n=%d",
						fb, i, faults[i].Site, faults[i].SA1,
						ref.DetectedAt[i], ref.Detections[i],
						cmp.DetectedAt[i], cmp.Detections[i])
				}
				bad++
			}
		}
		if bad > 0 {
			t.Fatalf("fb=%v: %d/%d faults differ between kernels", fb, bad, len(faults))
		}
		if rc, cc := ref.Coverage(), cmp.Coverage(); rc != cc {
			t.Fatalf("fb=%v: coverage differs: reference %.6f, compiled %.6f", fb, rc, cc)
		}
		t.Logf("fb=%v: %d faults, coverage %.2f%%, kernels bit-identical", fb, len(faults), ref.Coverage()*100)
	}
}
