package engine

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/api"
	"repro/internal/designs"
	"repro/internal/evolve"
	"repro/internal/lfsr"
	"repro/internal/obs"
)

// ga.go runs ga_search jobs: a deterministic evolutionary search over
// self-test program skeletons (internal/evolve genomes) whose fitness
// is fault coverage per test cycle. The executor owns the GA state;
// each individual's evaluation is an ordinary fault_sim cell handed to
// the executor's cellRunner under the derived ID "<job>/g<gen>+i<idx>",
// so a worker fleet needs zero GA knowledge. Every completed generation
// is journaled (recGaGen) and carried into every snapshot, so a
// kill -9 mid-search resumes from the last completed generation
// bit-identically to an uninterrupted run: the GA's random draws depend
// only on the seed and the fitness values fed back, and those fitness
// values are replayed verbatim from the journal.

// ga_search defaults, deliberately tiny: a GA burns one full fault-sim
// campaign per individual per generation.
const (
	defGaPopulation  = 12
	defGaGenerations = 6
	defGaSlots       = 12
	defGaIterations  = 150
	defGaElite       = 2
	defGaTournament  = 3
	defGaMutationPct = 15
	// gaTapsPool is how many maximal-length LFSR1 polynomials the search
	// draws from.
	gaTapsPool = 4
)

var (
	ctrGaGenerations = obs.Default().CounterFamily("sbst_ga_generations_total",
		"GA generations evaluated across ga_search jobs.").Counter()
	ctrGaCacheHits = obs.Default().CounterFamily("sbst_ga_cache_hits_total",
		"GA phenotype evaluations served from the in-search dedup cache.").Counter()
)

// GaGenRecord is one completed generation's evaluation outcome, in
// population order — exactly the data the GA needs to replay its
// Advance step after a crash. Journaled as recGaGen and carried behind
// the job's snapshot frame, so compaction cannot lose a running search's
// history.
type GaGenRecord struct {
	Gen      int       `json:"gen"`
	Coverage []float64 `json:"coverage"`
	Cycles   []int     `json:"cycles"`
	Faults   int       `json:"faults,omitempty"`
	Detected []int     `json:"detected,omitempty"`
}

// gaJournal is the queue-installed resume channel for a ga_search job:
// replay holds the generations already journaled for this job ID, and
// record durably appends a freshly completed one.
type gaJournal struct {
	replay []GaGenRecord
	record func(GaGenRecord)
}

type gaJournalKey struct{}

func withGaJournal(ctx context.Context, gj *gaJournal) context.Context {
	return context.WithValue(ctx, gaJournalKey{}, gj)
}

func gaJournalFrom(ctx context.Context) *gaJournal {
	gj, _ := ctx.Value(gaJournalKey{}).(*gaJournal)
	return gj
}

// gaOutcome is one phenotype's fault-simulation verdict.
type gaOutcome struct {
	Coverage float64
	Detected int
	Faults   int
	Cycles   int
}

// genomeVectors renders an individual as the program stimulus that
// grades it — what a cell carries to the runner, and what the result
// hands back as the winner.
func genomeVectors(g evolve.Genome, iters int) VectorSource {
	return VectorSource{
		Kind:        api.VecProgram,
		Program:     g.Source(),
		Seed:        int64(g.Seed1),
		Seed2:       int64(g.Seed2),
		Taps:        g.Taps1,
		ReseedEvery: g.ReseedEvery,
		Reseeds:     append([]uint64(nil), g.Reseeds...),
		Iterations:  iters,
	}
}

// runGaSearch executes one ga_search job against a design. Where the
// runner takes concurrent cells a generation's unseen individuals are
// evaluated together; results are collected by index either way, so
// evaluation timing never leaks into the GA's deterministic state.
func runGaSearch(ctx context.Context, run cellRunner, jobID string, d *designs.Design, spec JobSpec, update func(Progress)) (*JobResult, error) {
	if !d.InstructionDriven() {
		return nil, fmt.Errorf("engine: design %s has no instruction port; ga_search needs the dsp design", d.ID)
	}
	g := spec.Ga
	if g == nil {
		g = &api.GaSpec{}
	}
	popN := orDefault(g.Population, defGaPopulation)
	gens := orDefault(g.Generations, defGaGenerations)
	iters := orDefault(g.Iterations, defGaIterations)
	seed := g.Seed
	if seed == 0 {
		seed = 1
	}
	taps, err := lfsr.MaximalTaps(16, gaTapsPool)
	if err != nil {
		return nil, fmt.Errorf("engine: ga_search taps pool: %w", err)
	}
	search := evolve.New(evolve.Params{
		Population:  popN,
		Slots:       orDefault(g.Slots, defGaSlots),
		Elite:       orDefault(g.Elite, defGaElite),
		Tournament:  orDefault(g.Tournament, defGaTournament),
		MutationPct: orDefault(g.MutationPct, defGaMutationPct),
		Seed:        seed,
		Taps:        taps,
	})

	res := &api.GaResult{Population: popN, Generations: make([]api.GaGeneration, 0, gens)}
	var (
		bestFit    = -1.0
		bestGenome evolve.Genome
		bestOut    gaOutcome
		memo       = map[string]gaOutcome{} // phenotype dedup: genome rendering → verdict
		done       int
		total      = gens * popN
	)
	absorb := func(gen int, pop []evolve.Genome, outs []gaOutcome) []float64 {
		fit := make([]float64, len(outs))
		var sum float64
		bi := 0
		for i, o := range outs {
			fit[i] = evolve.Fitness(o.Coverage, o.Cycles)
			sum += fit[i]
			if fit[i] > fit[bi] {
				bi = i
			}
			if fit[i] > bestFit {
				bestFit = fit[i]
				bestGenome = pop[i]
				bestOut = o
			}
		}
		res.Generations = append(res.Generations, api.GaGeneration{
			Gen: gen, BestFitness: fit[bi], MeanFitness: sum / float64(len(fit)),
			BestCoverage: outs[bi].Coverage, BestCycles: outs[bi].Cycles,
		})
		return fit
	}
	progress := func() {
		update(Progress{
			Done: done, Total: total,
			Detected: bestOut.Detected, Remaining: bestOut.Faults - bestOut.Detected,
			Coverage: bestOut.Coverage,
		})
	}

	// Fast-forward journaled generations: re-derive each generation's
	// population from the seeded search and replay Advance with the
	// journaled outcomes — no re-evaluation, bit-identical trajectory.
	gj := gaJournalFrom(ctx)
	resumed := 0
	if gj != nil {
		for _, rec := range gj.replay {
			if rec.Gen != resumed || len(rec.Coverage) != popN || len(rec.Cycles) != popN {
				break // non-contiguous or mismatched record: evaluate from here
			}
			pop := search.Population()
			outs := make([]gaOutcome, popN)
			for i := range outs {
				outs[i] = gaOutcome{Coverage: rec.Coverage[i], Cycles: rec.Cycles[i], Faults: rec.Faults}
				if i < len(rec.Detected) {
					outs[i].Detected = rec.Detected[i]
				}
				memo[pop[i].String()] = outs[i]
			}
			search.Advance(absorb(rec.Gen, pop, outs))
			resumed++
			done += popN
		}
	}
	if resumed > 0 {
		res.ResumedFrom = resumed
		progress()
	}

	for gen := resumed; gen < gens; gen++ {
		if ctx.Err() != nil {
			return nil, fmt.Errorf("%w: ga_search at generation %d", ErrInterrupted, gen)
		}
		pop := search.Population()
		outs := make([]gaOutcome, len(pop))
		errs := make([]error, len(pop))
		var pending []int
		for i, ind := range pop {
			if o, ok := memo[ind.String()]; ok {
				outs[i] = o
				res.CacheHits++
				ctrGaCacheHits.Add(1)
				done++
				continue
			}
			pending = append(pending, i)
		}
		evalOne := func(i int) {
			ind := pop[i]
			cell := spec
			cell.Kind = JobFaultSim
			cell.Ga = nil
			cell.Vectors = genomeVectors(ind, iters)
			r, err := run.runCell(ctx, fmt.Sprintf("%s/g%02d+i%02d", jobID, gen, i), d, cell, func(Progress) { progress() })
			if err != nil {
				errs[i] = err
				return
			}
			outs[i] = gaOutcome{Coverage: r.Coverage(), Detected: r.Detected(), Faults: len(r.Faults), Cycles: r.Cycles}
		}
		if run.concurrent() {
			var wg sync.WaitGroup
			for _, i := range pending {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					evalOne(i)
				}(i)
			}
			wg.Wait()
			done += len(pending)
		} else {
			for _, i := range pending {
				evalOne(i)
				done++
				progress()
			}
		}
		for _, i := range pending {
			if errs[i] != nil {
				return nil, fmt.Errorf("engine: ga_search generation %d individual %d: %w", gen, i, errs[i])
			}
			memo[pop[i].String()] = outs[i]
			res.Evaluations++
		}
		// Durably record the generation BEFORE advancing: a crash after
		// this point replays it; a crash before re-evaluates it. Either
		// way the fitness the GA consumes is identical.
		if gj != nil {
			rec := GaGenRecord{Gen: gen, Coverage: make([]float64, len(outs)),
				Cycles: make([]int, len(outs)), Detected: make([]int, len(outs))}
			for i, o := range outs {
				rec.Coverage[i] = o.Coverage
				rec.Cycles[i] = o.Cycles
				rec.Detected[i] = o.Detected
				rec.Faults = o.Faults
			}
			gj.record(rec)
		}
		search.Advance(absorb(gen, pop, outs))
		ctrGaGenerations.Add(1)
		progress()
	}

	res.BestGenome = bestGenome.String()
	res.BestFitness = bestFit
	res.BestCoverage = bestOut.Coverage
	res.BestCycles = bestOut.Cycles
	res.Best = genomeVectors(bestGenome, iters)
	return &JobResult{
		Faults:   bestOut.Faults,
		Detected: bestOut.Detected,
		Cycles:   bestOut.Cycles,
		Coverage: bestOut.Coverage,
		Ga:       res,
	}, nil
}
