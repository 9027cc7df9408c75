package evolve

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/lfsr"
	"repro/internal/selftest"
)

// fakeFitness is a deterministic stand-in for fault simulation: it
// hashes the genome rendering so different genomes score differently
// but the same genome always scores the same.
func fakeFitness(g Genome) float64 {
	var h uint64 = 1469598103934665603
	for _, b := range []byte(g.String()) {
		h = (h ^ uint64(b)) * 1099511628211
	}
	return float64(h%10000) / 10000
}

// TestSearchDeterminism: two searches with the same seed, fed the same
// fitness values, produce byte-identical populations at every
// generation; a different seed diverges.
func TestSearchDeterminism(t *testing.T) {
	taps, err := lfsr.MaximalTaps(16, 4)
	if err != nil {
		t.Fatal(err)
	}
	p := Params{Population: 8, Slots: 6, Seed: 42, Taps: taps}
	a, b := New(p), New(p)
	for gen := 0; gen < 4; gen++ {
		pa, pb := a.Population(), b.Population()
		fit := make([]float64, len(pa))
		for i := range pa {
			if pa[i].String() != pb[i].String() {
				t.Fatalf("gen %d individual %d diverged:\n%s\n%s", gen, i, pa[i], pb[i])
			}
			fit[i] = fakeFitness(pa[i])
		}
		a.Advance(fit)
		b.Advance(fit)
	}

	other := New(Params{Population: 8, Slots: 6, Seed: 43, Taps: taps})
	same := 0
	for i, g := range New(p).Population() {
		if g.String() == other.Population()[i].String() {
			same++
		}
	}
	if same == 8 {
		t.Fatal("different seeds produced an identical initial population")
	}
}

// TestPhenotypeValidity: every genome in a few bred generations renders
// to source that assembles, schedules hazard-free, and expands under
// its own LFSR genes.
func TestPhenotypeValidity(t *testing.T) {
	taps, err := lfsr.MaximalTaps(16, 3)
	if err != nil {
		t.Fatal(err)
	}
	s := New(Params{Population: 6, Slots: 8, Seed: 7, Taps: taps})
	for gen := 0; gen < 3; gen++ {
		pop := s.Population()
		fit := make([]float64, len(pop))
		for i, g := range pop {
			prog, err := isa.Assemble(g.Source())
			if err != nil {
				t.Fatalf("gen %d individual %d does not assemble: %v\n%s", gen, i, err, g.Source())
			}
			if bad := selftest.HazardViolations(prog); len(bad) != 0 {
				t.Fatalf("gen %d individual %d has delay-slot hazards at %v", gen, i, bad)
			}
			vecs := selftest.Expand(&selftest.Program{Loop: prog}, selftest.ExpandOptions{
				Iterations:  4,
				Seed1:       g.Seed1,
				Seed2:       g.Seed2,
				Taps1:       g.Taps1,
				ReseedEvery: g.ReseedEvery,
				Reseeds:     g.Reseeds,
			})
			if len(vecs) != 4*len(prog) {
				t.Fatalf("gen %d individual %d expanded to %d vectors, want %d", gen, i, len(vecs), 4*len(prog))
			}
			fit[i] = fakeFitness(g)
		}
		s.Advance(fit)
	}
}

// TestAdvanceElitism: the best individual survives unchanged into the
// next generation.
func TestAdvanceElitism(t *testing.T) {
	s := New(Params{Population: 6, Slots: 4, Elite: 2, Seed: 3})
	pop := s.Population()
	fit := make([]float64, len(pop))
	fit[3] = 1.0 // individual 3 dominates
	best := pop[3].String()
	s.Advance(fit)
	if got := s.Population()[0].String(); got != best {
		t.Fatalf("elite slot 0 is not the best individual:\n got %s\nwant %s", got, best)
	}
	if s.gen != 1 {
		t.Fatalf("Gen() = %d after one Advance, want 1", s.gen)
	}
}

// TestRankDesc pins the deterministic tie-break: equal fitness ranks by
// lower index.
func TestRankDesc(t *testing.T) {
	order := rankDesc([]float64{0.5, 0.9, 0.5, 0.1})
	want := []int{1, 0, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("rankDesc = %v, want %v", order, want)
		}
	}
}

// TestFitnessTieBreak: equal coverage prefers fewer cycles, but one
// fault quantum of coverage always beats any cycle saving.
func TestFitnessTieBreak(t *testing.T) {
	if !(Fitness(0.5, 100) > Fitness(0.5, 200)) {
		t.Fatal("equal coverage did not prefer fewer cycles")
	}
	// One fault quantum on the paper core is ~6.7e-4 of coverage; at
	// realistic test lengths (tens of thousands of cycles) the cycle
	// penalty must never outweigh it.
	if !(Fitness(0.5+1.0/1500, 60000) > Fitness(0.5, 1)) {
		t.Fatal("cycle penalty outweighed a coverage quantum")
	}
}
