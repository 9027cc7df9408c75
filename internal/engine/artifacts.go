package engine

import (
	"repro/internal/artifacts"
	"repro/internal/fault"
	"repro/internal/logic"
	"repro/internal/obs"
)

var (
	// ctrProgramBuilds counts artifact-path program resolutions that had
	// to go to the compiler — an artifact-cache hit leaves it untouched,
	// which is what the repeat-submission acceptance test asserts.
	ctrProgramBuilds = obs.Default().Counter("engine.sim.program_builds")
	// ctrTracePrefills counts whole-trace good-machine prefills on the
	// artifact path (each one is vecs.Len() cycles of fault-free
	// simulation, done once and then shared by every shard and every
	// later job on the same key).
	ctrTracePrefills = obs.Default().Counter("engine.sim.trace_prefills")
)

// resolveArtifacts points opts.SimOptions at cached artifacts for
// (opts.DesignHash, vecs): the compiled program always, and the
// complete fault-free trace when it is resident or this call wins the
// fill. On a warm hit the subsequent simulation performs zero compiles
// and zero good-machine cycles; on a cold miss this call pays the
// whole good-machine pass up front (the same cycles the kernel would
// have spent per segment) and publishes it for every later job.
//
// The returned release function drops the store lease and must run
// after the simulation completes — leased entries are exempt from
// eviction, which is what keeps a shared trace alive while shards
// replay it.
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
	opts.Program = h.Program(func() *logic.Compiled {
		ctrProgramBuilds.Add(1)
		return logic.CompiledFor(n)
	})
	if tr := h.Trace(opts.Program.TraceBits(), vecs.Len(), func(tr *logic.GoodTrace) {
		ctrTracePrefills.Add(1)
		fault.FillGoodTrace(n, opts.Program, vecs, tr, vecs.Len())
	}); tr != nil && tr.ValidThrough() >= vecs.Len() {
		opts.Trace = tr
	}
	return h.Release
}
