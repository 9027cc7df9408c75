package engine

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/logic"
	"repro/internal/obs"
)

// shadow.go is the compiled kernel's quarantine. The guard itself runs
// inside the call: fault.Simulate audits a seeded sample of its windows
// against the reference simulator and returns a *fault.DivergenceError
// when one disagrees (internal/fault/audit.go). The two are
// bit-identical by construction, so a divergence means the compiled
// kernel — or the memory under it — silently produced a wrong batch. The
// compiled kernel is then quarantined for the call: the kernel.divergence
// counter advances, a kernel.divergence event carries the divergent
// window and its disagreeing lanes to the Sink, and the whole call
// re-runs on the reference kernel.

var ctrKernelDivergence = obs.Default().Counter("kernel.divergence")

// quarantine answers a call whose audit disagreed with the compiled
// kernel with a re-run of the whole call on the reference kernel, under
// the same supervisor.
func quarantine(n *logic.Netlist, vecs fault.VectorSeq, sim fault.SimOptions, div *fault.DivergenceError) (*fault.Result, error) {
	ctrKernelDivergence.Add(1)
	obs.Emit(sim.Sink, obs.Event{
		Type: obs.EventPhase,
		Name: "engine.sim",
		Fields: map[string]any{
			"event":      "kernel.divergence",
			"segment":    div.Segment,
			"batch":      div.Batch,
			"word":       div.Word,
			"lanes":      div.Lanes,
			"audited":    div.Audited,
			"divergent":  div.Divergent,
			"quarantine": "reference_fallback",
		},
	})
	ref := sim
	ref.Kernel = fault.KernelReference
	res, err := supervise(n, vecs, ref)
	if err != nil {
		return nil, fmt.Errorf("engine: reference fallback: %w", err)
	}
	return res, nil
}
