package engine

import (
	"testing"

	"repro/internal/artifacts"
	"repro/internal/bist"
	"repro/internal/designs"
	"repro/internal/fault"
	"repro/internal/obs"
)

// TestArtifactRepeatSubmissionSkipsWork is the artifact cache's
// acceptance test: a second submission of the same (design, vector
// source) pair performs zero good-machine cycles. The design is built
// twice — two distinct netlist identities with the same content hash —
// so the second run shares nothing with the first but the store's
// trace. (Each netlist compiles its own program: logic.CompiledFor keeps
// it on the netlist.)
func TestArtifactRepeatSubmissionSkipsWork(t *testing.T) {
	const id = "fam/w8r4s1l1p2"
	d1, err := designs.Build(id)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := designs.Build(id)
	if err != nil {
		t.Fatal(err)
	}
	if d1.Netlist == d2.Netlist {
		t.Fatal("designs.Build memoizes netlists; the rebuild no longer isolates the store")
	}
	if d1.Hash != d2.Hash {
		t.Fatalf("content hash unstable across builds: %s vs %s", d1.Hash, d2.Hash)
	}

	vecs := bist.PseudorandomVectors(512, 1)
	store := artifacts.NewStore(0)
	goodCycles := obs.Default().Counter("faultsim.good_cycles")

	run := func(d *designs.Design) float64 {
		res, err := Simulate(d.Netlist, vecs, SimOptions{
			SimOptions: fault.SimOptions{Faults: d.Faults},
			Workers:    2,
			DesignHash: d.Hash,
			Artifacts:  store,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Coverage()
	}

	g0 := goodCycles.Load()
	cov1 := run(d1)
	g1 := goodCycles.Load()
	if g1-g0 != int64(vecs.Len()) {
		t.Fatalf("cold run filled %d good cycles, want exactly %d (one shared prefill)", g1-g0, vecs.Len())
	}

	cov2 := run(d2)
	if g2 := goodCycles.Load(); g2 != g1 {
		t.Fatalf("warm run simulated %d good-machine cycles, want 0", g2-g1)
	}
	if cov1 != cov2 {
		t.Fatalf("coverage diverges across cache states: %v vs %v", cov1, cov2)
	}
}

// TestArtifactsOffByDefault: without a DesignHash the options are
// untouched — no lease, no shared trace — so direct Simulate callers
// (benchmarks, tests) keep the cold path they always had.
func TestArtifactsOffByDefault(t *testing.T) {
	d, err := GetDesign(designs.DefaultID)
	if err != nil {
		t.Fatal(err)
	}
	core, faults := d.Core, d.Faults
	vecs := bist.PseudorandomVectors(64, 1)
	store := artifacts.NewStore(0)
	res, err := Simulate(core.Netlist, vecs, SimOptions{
		SimOptions: fault.SimOptions{Faults: faults[:100]},
		Workers:    1,
		Artifacts:  store,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles != vecs.Len() {
		t.Fatalf("cycles %d, want %d", res.Cycles, vecs.Len())
	}
	if store.Len() != 0 {
		t.Fatalf("store gained %d entries without a DesignHash", store.Len())
	}
}
