package engine

import (
	"repro/internal/artifacts"
	"repro/internal/fault"
	"repro/internal/logic"
	"repro/internal/obs"
)

// ctrTracePrefills counts whole-trace good-machine prefills on the
// artifact path (each one is vecs.Len() cycles of fault-free
// simulation, done once and then shared by every later job on the
// same key).
var ctrTracePrefills = obs.Default().Counter("engine.sim.trace_prefills")

// resolveArtifacts points opts.Trace at the complete fault-free trace
// cached for (opts.DesignHash, vecs) when it is resident or this call
// wins the fill. On a warm hit the subsequent simulation performs zero
// good-machine cycles; on a cold miss this call pays the whole
// good-machine pass up front (the same cycles the kernel would have
// spent per segment) and publishes it for every later job.
//
// The returned release function drops the store lease and must run
// after the simulation completes — leased entries are exempt from
// eviction, which is what keeps a shared trace alive while the call
// replays it.
func resolveArtifacts(n *logic.Netlist, vecs fault.VectorSeq, opts *SimOptions) func() {
	if opts.NoArtifacts || opts.DesignHash == "" || vecs.Len() == 0 {
		return func() {}
	}
	store := opts.Artifacts
	if store == nil {
		store = artifacts.Default()
	}
	key := artifacts.Key{
		Design:  opts.DesignHash,
		Vectors: artifacts.HashVectors(vecs.Len(), vecs.At),
	}
	h := store.Lease(key)
	prog := logic.CompiledFor(n)
	if tr := h.Trace(prog.TraceBits(), vecs.Len(), func(tr *logic.GoodTrace) {
		ctrTracePrefills.Add(1)
		fault.FillGoodTrace(n, prog, vecs, tr, vecs.Len())
	}); tr != nil && tr.ValidThrough() >= vecs.Len() {
		opts.Trace = tr
	}
	return h.Release
}
