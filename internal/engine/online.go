package engine

import (
	"context"
	"fmt"

	"repro/internal/api"
	"repro/internal/designs"
	"repro/internal/dsp"
	"repro/internal/isa"
	"repro/internal/online"
	"repro/internal/selftest"
)

// Online interval-scheduler defaults for online_burst jobs. The paper's
// deployment mode runs short bursts, so the job-level defaults are
// smaller than the library's characterization defaults.
const (
	defOnlineIntervals  = 8
	defOnlineIterations = 4
	defOnlineMISRWidth  = 24
)

// resolveProgram yields the self-test program behind program and
// selftest stimulus — an inline assembled program or the paper's
// committed one. online_burst schedules it; resolveVectors expands it.
func resolveProgram(src VectorSource) (*selftest.Program, error) {
	switch src.Kind {
	case api.VecProgram:
		prog, err := isa.Assemble(src.Program)
		if err != nil {
			return nil, err
		}
		return &selftest.Program{Loop: prog}, nil
	case "", api.VecSelfTest:
		return selftest.PaperProgram(), nil
	default:
		return nil, fmt.Errorf("engine: online_burst takes program or selftest stimulus, not %q", src.Kind)
	}
}

// runOnlineBurst executes an online_burst job: characterize the
// interval schedule for the spec's program, optionally prove the
// signature comparator with a deliberate injected fault, then run the
// full schedule on a clean core across budget-bounded slots. The job
// fails when the comparator misses the planted fault or when a clean
// core mismatches any interval signature — both mean the part (or the
// test) cannot be trusted in the field.
func runOnlineBurst(ctx context.Context, d *designs.Design, spec JobSpec, update func(Progress)) (*JobResult, error) {
	if !d.InstructionDriven() {
		return nil, fmt.Errorf("engine: design %s has no instruction port; online_burst needs the dsp design", d.ID)
	}
	o := spec.Online
	if o == nil {
		o = &api.OnlineSpec{}
	}
	policy, err := online.ParsePolicy(o.Policy)
	if err != nil {
		return nil, err
	}
	prog, err := resolveProgram(spec.Vectors)
	if err != nil {
		return nil, err
	}
	cfg := online.IntervalConfig{
		Config: online.Config{
			Iterations: orDefault(o.Iterations, defOnlineIterations),
			MISRWidth:  orDefault(o.MISRWidth, defOnlineMISRWidth),
			Seed1:      uint64(spec.Vectors.Seed),
		},
		Intervals:     orDefault(o.Intervals, defOnlineIntervals),
		TimeoutCycles: o.TimeoutCycles,
		Policy:        policy,
	}
	set, err := online.CharacterizeIntervals(prog, cfg)
	if err != nil {
		return nil, err
	}
	intervals := set.Intervals()
	res := &api.OnlineResult{
		Intervals:   len(intervals),
		BurstCycles: set.BurstCycles(),
		Schedule:    make([]api.OnlineIntervalInfo, 0, len(intervals)),
	}
	for _, iv := range intervals {
		res.Schedule = append(res.Schedule, api.OnlineIntervalInfo{
			Index: iv.Index, Cycles: iv.Cycles,
			Golden: fmt.Sprintf("%0*x", (cfg.MISRWidth+3)/4, iv.Golden),
		})
	}
	if o.BudgetCycles > 0 {
		for _, iv := range intervals {
			if iv.Cycles > o.BudgetCycles {
				return nil, fmt.Errorf("engine: online_burst budget_cycles %d cannot fit interval %d (%d cycles)",
					o.BudgetCycles, iv.Index, iv.Cycles)
			}
		}
		// Restart policy re-runs from interval 0 after every preemption: a
		// budget below the whole schedule preempts every slot and the
		// schedule never completes. Reject it rather than spin.
		if policy == online.PolicyRestart && o.BudgetCycles < set.BurstCycles() {
			return nil, fmt.Errorf("engine: online_burst restart policy with budget_cycles %d below the %d-cycle schedule never completes",
				o.BudgetCycles, set.BurstCycles())
		}
	}

	if o.SelfCheck {
		sc, err := set.SelfCheck(o.FaultSeed)
		if err != nil {
			return nil, err
		}
		res.SelfCheck = &api.OnlineSelfCheck{
			Component:           sc.Component.Name(),
			Bit:                 sc.Bit,
			Caught:              sc.Caught,
			MismatchedIntervals: sc.MismatchedIntervals,
		}
		if !sc.Caught {
			jr := &JobResult{Online: res}
			return jr, fmt.Errorf("engine: online_burst self-check: comparator missed injected %s bit %d fault",
				sc.Component.Name(), sc.Bit)
		}
	}

	// The field run: a clean core, whole intervals per budget slot.
	runner := online.NewRunner(set, dsp.New())
	for {
		if ctx != nil && ctx.Err() != nil {
			return nil, fmt.Errorf("%w: online burst at interval %d", ErrInterrupted, runner.Status().Next)
		}
		outcomes, err := runner.Run(o.BudgetCycles)
		if err != nil {
			return nil, err
		}
		st := runner.Status()
		update(Progress{Done: st.Completed, Total: len(intervals)})
		if st.Done || st.Failed {
			break
		}
		if len(outcomes) == 0 {
			// A slot that fits no interval will never make progress.
			return nil, fmt.Errorf("engine: online_burst budget_cycles %d makes no progress at interval %d",
				o.BudgetCycles, st.Next)
		}
	}
	st := runner.Status()
	res.Passed = st.Passed
	res.Mismatches = st.Mismatches
	res.Timeouts = st.Timeouts
	res.Preemptions = st.Preemptions
	res.Slots = st.Slots
	jr := &JobResult{Online: res, Cycles: set.BurstCycles()}
	if st.Failed {
		return jr, fmt.Errorf("engine: online_burst interval %d failed (mismatches %d, timeouts %d)",
			st.FailedInterval, st.Mismatches, st.Timeouts)
	}
	// Headline coverage slot: intervals passed over intervals scheduled.
	jr.Coverage = safeRatio(st.Passed, len(intervals))
	return jr, nil
}

// orDefault returns v, or def when v is zero.
func orDefault(v, def int) int {
	if v > 0 {
		return v
	}
	return def
}
