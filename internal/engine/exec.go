package engine

import (
	"context"
	"fmt"

	"repro/internal/api"
	"repro/internal/bist"
	"repro/internal/chaos"
	"repro/internal/designs"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/selftest"
)

// ExecConfig configures the standard executor.
type ExecConfig struct {
	// Workers is ignored: a job's simulation is one call, which already
	// spends every core. It stays because the benchmark sets it, until
	// ROADMAP item 10(g) deletes it.
	Workers int
	// Sink receives each campaign's event stream.
	Sink obs.Sink
}

// specNDetect resolves a spec's effective n-detect target: zero for
// plain campaigns, the spec's value (defaulted to the paper's n=5)
// for n_detect campaigns. Coordinator and workers must share this
// defaulting for unit results to merge bit-identically.
func specNDetect(spec JobSpec) int {
	if spec.Kind != JobNDetect {
		return 0
	}
	if spec.NDetect < 2 {
		return 5
	}
	return spec.NDetect
}

// cellRunner runs one fault-simulation cell: grade cell.Vectors against
// every fault of d and return the merged result. Every kind below is
// written once against it; where the cell's faults are simulated is the
// only thing the two executors disagree on.
type cellRunner interface {
	// runCell runs the cell under id — the queue's job ID, or one
	// derived from it for the cells of a matrix or a GA generation.
	runCell(ctx context.Context, id string, d *designs.Design, cell JobSpec, update func(Progress)) (*fault.Result, error)
	// concurrent reports whether independent cells of one job should be
	// in flight together.
	concurrent() bool
}

// localRunner simulates a cell's whole fault list in-process.
type localRunner struct{ cfg ExecConfig }

func (r localRunner) runCell(ctx context.Context, _ string, d *designs.Design, cell JobSpec, update func(Progress)) (*fault.Result, error) {
	return simulateUnit(ctx, r.cfg, d, cell, 0, len(d.Faults), update)
}

// One in-process cell is one Simulate call, which already spends every
// core.
func (localRunner) concurrent() bool { return false }

// NewExecutor returns the production Executor: it resolves the spec's
// design through the registry cache and runs every job kind against
// it, one Simulate call per fault-simulation cell.
func NewExecutor(cfg ExecConfig) Executor { return newExecutor(cfg, localRunner{cfg}) }

// newExecutor is the one dispatch behind NewExecutor and
// NewDistExecutor. seq_atpg and online_burst are not fault-simulation
// cells and run in-process under either runner.
func newExecutor(cfg ExecConfig, run cellRunner) Executor {
	return func(ctx context.Context, spec JobSpec, update func(Progress)) (*JobResult, error) {
		// Chaos point: an executor that crashes, stalls, or fails with a
		// retryable environment error before the campaign starts.
		if f := chaos.Maybe("engine.exec"); f != nil {
			f.PanicNow()
			f.Sleep(ctx)
			if ierr := f.Err(); ierr != nil {
				return nil, fmt.Errorf("%w: %v", ErrTransient, ierr)
			}
		}
		id := cellJobID(ctx)
		if spec.Kind == JobCampaignMatrix {
			return runMatrix(ctx, run, id, spec, update)
		}
		d, err := GetDesign(spec.Design)
		if err != nil {
			return nil, err
		}
		switch spec.Kind {
		case JobFaultSim, JobNDetect:
			return runFaultSim(ctx, run, id, d, spec, update)
		case JobSeqATPG:
			return runSeqATPG(ctx, cfg, d, spec, update)
		case JobExperiment:
			return runExperiment(ctx, run, id, d, spec, update)
		case JobOnlineBurst:
			return runOnlineBurst(ctx, d, spec, update)
		case JobGaSearch:
			return runGaSearch(ctx, run, id, d, spec, update)
		default:
			return nil, fmt.Errorf("engine: unknown job kind %q", spec.Kind)
		}
	}
}

// resolveVectors expands a VectorSource into the stimulus stream for a
// design. BIST vectors come from the 17-bit LFSR generator on the DSP
// core (bit-compatible with the paper's published coverage numbers)
// and from a width-matched LFSR on everything else. Program and
// self-test stimulus execute on the DSP template architecture, so they
// are refused for designs without the instruction port.
func resolveVectors(d *designs.Design, src VectorSource) (fault.Vectors, error) {
	switch src.Kind {
	case api.VecBIST:
		if d.InstructionDriven() {
			return bist.PseudorandomVectors(src.Count, uint64(src.Seed)), nil
		}
		return designs.PseudorandomVectors(len(d.Netlist.Inputs()), src.Count, uint64(src.Seed)), nil
	case api.VecProgram, api.VecSelfTest:
		if !d.InstructionDriven() {
			return nil, fmt.Errorf("engine: design %s has no instruction port; %s stimulus needs the dsp design", d.ID, src.Kind)
		}
		prog, err := resolveProgram(src)
		if err != nil {
			return nil, err
		}
		return selftest.Expand(prog,
			selftest.ExpandOptions{
				Iterations: orDefault(src.Iterations, 1000),
				Seed1:      uint64(src.Seed), Seed2: uint64(src.Seed2),
				Taps1: src.Taps, ReseedEvery: src.ReseedEvery, Reseeds: src.Reseeds,
			}), nil
	default:
		return nil, fmt.Errorf("engine: unknown vector source %q", src.Kind)
	}
}

// simulateUnit fault-simulates spec's stimulus against d.Faults[lo:hi]:
// the whole list for an in-process cell, one leased slice on a worker.
// It is the only place a job reaches Simulate, so the n-detect target,
// the audit policy, the artifact key and the trace stamp cannot differ
// between the two. The spec's Workers is accepted and ignored.
func simulateUnit(ctx context.Context, cfg ExecConfig, d *designs.Design, spec JobSpec,
	lo, hi int, progress func(Progress)) (*fault.Result, error) {

	vecs, err := resolveVectors(d, spec.Vectors)
	if err != nil {
		return nil, err
	}
	total := vecs.Len()
	res, err := Simulate(d.Netlist, vecs, SimOptions{
		SimOptions: fault.SimOptions{
			Faults:     d.Faults[lo:hi],
			NDetect:    specNDetect(spec),
			SegmentLen: spec.SegmentLen,
			Ctx:        ctx,
			Sink:       obs.WithTrace(cfg.Sink, spec.TraceID),
			Progress: func(cycles, detected, remaining int) {
				if progress != nil {
					progress(Progress{
						Done: cycles, Total: total,
						Detected: detected, Remaining: remaining,
						Coverage: safeRatio(detected, detected+remaining),
					})
				}
			},
		},
		DesignHash: d.Hash,
	})
	if err != nil {
		return nil, err
	}
	if res.Interrupted {
		return nil, fmt.Errorf("%w: %d/%d vectors applied", ErrInterrupted, res.Cycles, total)
	}
	return res, nil
}

// summarize reduces a cell's merged result to its headline numbers.
func summarize(res *fault.Result, spec JobSpec) *JobResult {
	jr := &JobResult{
		Faults:   len(res.Faults),
		Detected: res.Detected(),
		Cycles:   res.Cycles,
		Coverage: res.Coverage(),
	}
	if ndet := specNDetect(spec); ndet > 1 {
		jr.NDetect = ndet
		jr.NDetectCoverage = res.NDetectCoverage(ndet)
	}
	return jr
}

// runFaultSim is the one-cell job: fault_sim and n_detect, and each
// half of an experiment.
func runFaultSim(ctx context.Context, run cellRunner, id string, d *designs.Design,
	spec JobSpec, update func(Progress)) (*JobResult, error) {

	res, err := run.runCell(ctx, id, d, spec, update)
	if err != nil {
		return nil, err
	}
	return summarize(res, spec), nil
}

func runSeqATPG(ctx context.Context, cfg ExecConfig, d *designs.Design,
	spec JobSpec, update func(Progress)) (*JobResult, error) {

	frames := spec.Frames
	if frames <= 0 {
		frames = 3
	}
	sample := spec.SampleEvery
	if sample <= 0 {
		sample = 40
	}
	backtracks := spec.MaxBacktracks
	if backtracks <= 0 {
		backtracks = 300
	}
	res, err := bist.SequentialATPGOpts(d.Netlist, bist.SeqATPGOptions{
		Frames: frames, SampleEvery: sample, MaxBacktracks: backtracks,
		Sink: cfg.Sink,
		Progress: func(done, total int) {
			update(Progress{Done: done, Total: total})
			// The ATPG loop has no cancellation hook; a drain deadline
			// surfaces as an interrupted job at the next fault boundary.
			if ctx != nil && ctx.Err() != nil {
				panic(ErrInterrupted)
			}
		},
	})
	if err != nil {
		return nil, err
	}
	return &JobResult{
		Faults:     res.TotalFaults,
		Coverage:   res.Coverage(),
		TestsFound: res.TestsFound,
		Untestable: res.Untestable,
		Aborted:    res.Aborted,
	}, nil
}

// runExperiment is the composite campaign behind the paper's headline
// comparison: fault-simulate the requested stimulus, then a raw-LFSR
// BIST baseline of the same length, reporting both coverages side by
// side. The baseline's length is the first phase's cycle count, so a
// coordinator never expands program/selftest stimulus itself.
func runExperiment(ctx context.Context, run cellRunner, id string, d *designs.Design,
	spec JobSpec, update func(Progress)) (*JobResult, error) {

	sub := spec
	sub.Kind = JobFaultSim
	main, err := runFaultSim(ctx, run, id, d, sub, update)
	if err != nil {
		return nil, err
	}
	seed := spec.Vectors.Seed
	if seed == 0 {
		seed = 1
	}
	base := sub
	base.Vectors = VectorSource{Kind: api.VecBIST, Count: main.Cycles, Seed: seed}
	baseline, err := runFaultSim(ctx, run, id, d, base, update)
	if err != nil {
		return nil, err
	}
	return &JobResult{
		Faults:   main.Faults,
		Detected: main.Detected,
		Cycles:   main.Cycles,
		Coverage: main.Coverage,
		Sub: map[string]*JobResult{
			"stimulus":      main,
			"bist_baseline": baseline,
		},
	}, nil
}

// matrixCellScale is the per-cell width of a matrix job's progress
// axis: cell i occupies [i*scale, (i+1)*scale) of Progress.Done, so a
// dashboard sees smooth forward motion across cells of very different
// vector counts.
const matrixCellScale = 1000

// runMatrix fans spec.Matrix's designs × schemes cross product into
// independent fault-sim campaigns (designs-major order), rolling the
// per-cell results into the JobResult.Matrix table. Each cell runs
// under the derived ID "<job>/<design>+s<scheme>", one after another:
// the parallelism is inside a cell (every core, or a fleet's work units),
// and sequential cells keep every design cache hot on one design at a
// time.
func runMatrix(ctx context.Context, run cellRunner, jobID string, spec JobSpec, update func(Progress)) (*JobResult, error) {
	m := spec.Matrix
	if m == nil || len(m.Designs) == 0 || len(m.Schemes) == 0 {
		return nil, fmt.Errorf("engine: campaign_matrix job needs matrix designs and schemes")
	}
	nCells := len(m.Designs) * len(m.Schemes)
	out := &JobResult{Matrix: make([]api.MatrixCell, 0, nCells)}
	ci := 0
	for _, id := range m.Designs {
		d, err := GetDesign(id)
		if err != nil {
			return nil, err
		}
		for si, scheme := range m.Schemes {
			cell := spec
			cell.Kind = JobFaultSim
			cell.Design = d.ID
			cell.Vectors = scheme
			cell.Matrix = nil
			base := ci * matrixCellScale
			r, err := runFaultSim(ctx, run, fmt.Sprintf("%s/%s+s%d", jobID, d.ID, si), d, cell, func(p Progress) {
				frac := 0
				if p.Total > 0 {
					frac = p.Done * matrixCellScale / p.Total
				}
				update(Progress{
					Done: base + frac, Total: nCells * matrixCellScale,
					Detected: out.Detected + p.Detected, Remaining: p.Remaining,
					Coverage: safeRatio(out.Detected+p.Detected, out.Faults+len(d.Faults)),
				})
			})
			if err != nil {
				return nil, fmt.Errorf("engine: matrix cell %s × %s[%d]: %w", d.ID, scheme.Kind, si, err)
			}
			out.Matrix = append(out.Matrix, api.MatrixCell{
				Design: d.ID, Scheme: scheme.Kind, SchemeIndex: si,
				Faults: r.Faults, Detected: r.Detected, Cycles: r.Cycles, Coverage: r.Coverage,
			})
			out.Faults += r.Faults
			out.Detected += r.Detected
			out.Cycles += r.Cycles
			ci++
			update(Progress{
				Done: ci * matrixCellScale, Total: nCells * matrixCellScale,
				Detected: out.Detected,
				Coverage: safeRatio(out.Detected, out.Faults),
			})
		}
	}
	out.Coverage = safeRatio(out.Detected, out.Faults)
	return out, nil
}
