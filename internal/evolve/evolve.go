// Package evolve implements a deterministic, seeded genetic search over
// self-test program skeletons for the DSP core, after "Evolutionary
// Approach to Test Generation for Functional BIST": the genome encodes
// instruction-slot choices over the selftest generator's vocabulary
// plus the template architecture's LFSR configuration — seed,
// feedback polynomial (drawn from a pool of verified maximal-length
// masks) and a hybrid-BIST reseed schedule — and fitness is fault
// coverage per test cycle.
//
// The package is deliberately evaluation-free: it breeds genomes and
// renders phenotypes (assembler source + expansion options), while the
// caller measures fitness however it likes — locally, or fanned out
// across a worker fleet. All randomness flows from one splitmix64
// stream seeded by Params.Seed and is consumed in a fixed order that
// depends only on the fitness values fed back, never on evaluation
// timing, so the same seed reproduces the same search bit for bit at
// any evaluation concurrency.
package evolve

import (
	"fmt"
	"strings"

	"repro/internal/isa"
	"repro/internal/selftest"
)

// Slot is one evolved instruction position: an operation from the
// generator vocabulary, the accumulator it targets (MAC family only)
// and its destination register from the row-destination pool.
type Slot struct {
	Op   isa.Op
	Acc  isa.Acc
	Dest uint8
}

// Genome is one individual: the program skeleton plus the LFSR genes.
type Genome struct {
	Slots []Slot
	// Seed1 and Seed2 seed LFSR1 (immediates) and LFSR2 (register
	// rotation) for template expansion.
	Seed1, Seed2 uint64
	// Taps1 is LFSR1's feedback polynomial, one of Params.Taps.
	Taps1 uint64
	// ReseedEvery/Reseeds is the hybrid reseed schedule gene: when
	// ReseedEvery > 0, expansion reseeds LFSR1 every that many loop
	// iterations, cycling through Reseeds. Zero disables reseeding.
	ReseedEvery int
	Reseeds     []uint64
}

// String renders the genome's canonical text encoding — stable across
// runs, so byte-equality of two renderings means genome equality.
func (g Genome) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "seed1=%#04x seed2=%#03x taps=%#04x", g.Seed1, g.Seed2, g.Taps1)
	if g.ReseedEvery > 0 {
		fmt.Fprintf(&sb, " reseed=%d@", g.ReseedEvery)
		for i, r := range g.Reseeds {
			if i > 0 {
				sb.WriteByte(',')
			}
			fmt.Fprintf(&sb, "%#04x", r)
		}
	}
	sb.WriteString(" |")
	for _, s := range g.Slots {
		mn := s.Op.Mnemonic()
		if s.Op.MacFamily() {
			mn += s.Acc.String()
		}
		fmt.Fprintf(&sb, " %s>%d", mn, s.Dest)
	}
	return sb.String()
}

// Program renders the phenotype's loop body: the randomization
// preamble, each slot instruction with an observing OUT wrapper, then
// delay-slot scheduling.
func (g Genome) Program() *selftest.Program {
	loop := selftest.Preamble()
	ra, rb := selftest.SlotSources()
	for _, s := range g.Slots {
		var in isa.Instr
		if s.Op.Format() == isa.Format2 {
			in = isa.Instr{Op: s.Op, RD: s.Dest, RndImm: true}
		} else {
			in = isa.Instr{Op: s.Op, Acc: s.Acc, RA: ra, RB: rb, RD: s.Dest}
		}
		loop = append(loop, in)
		if s.Op.WritesDest() {
			loop = append(loop, isa.Instr{Op: isa.OpOut, Src: s.Dest})
		}
	}
	return &selftest.Program{Loop: selftest.FixHazards(loop)}
}

// Source renders the phenotype as assembler source, one instruction per
// line, round-trippable through isa.Assemble — the form that travels in
// a VectorSource to workers.
func (g Genome) Source() string {
	var sb strings.Builder
	for _, in := range g.Program().Loop {
		sb.WriteString(in.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}

// Fitness scores one evaluated phenotype: fault coverage dominates, and
// the vanishing cycle term breaks coverage ties toward shorter tests
// (coverage moves in quanta of one fault, ~1e-3 on the paper core, so
// 1e-9 per cycle can never trade coverage for length).
func Fitness(coverage float64, cycles int) float64 {
	return coverage - 1e-9*float64(cycles)
}

// Params configures a search. Zero fields select the defaults noted.
type Params struct {
	Population  int   // individuals per generation (default 12)
	Slots       int   // evolved instruction slots per genome (default 12)
	Elite       int   // top individuals copied unchanged (default 2)
	Tournament  int   // selection tournament size (default 3)
	MutationPct int   // per-gene mutation probability in percent (default 15)
	Seed        int64 // PRNG seed (default 1)
	// Taps is the polynomial gene pool; every entry must be a verified
	// maximal-length LFSR1 tap mask (lfsr.MaximalTaps supplies one).
	Taps []uint64
}

func (p Params) withDefaults() Params {
	if p.Population <= 0 {
		p.Population = 12
	}
	if p.Slots <= 0 {
		p.Slots = 12
	}
	if p.Elite <= 0 {
		p.Elite = 2
	}
	if p.Elite > p.Population {
		p.Elite = p.Population
	}
	if p.Tournament <= 0 {
		p.Tournament = 3
	}
	if p.MutationPct <= 0 {
		p.MutationPct = 15
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	if len(p.Taps) == 0 {
		p.Taps = []uint64{0xD008} // the built-in width-16 primitive mask
	}
	return p
}

// reseedChoices are the ReseedEvery values mutation may pick (0 = no
// reseeding).
var reseedChoices = []int{0, 2, 3, 4, 6, 8}

// Search is one in-flight genetic search.
type Search struct {
	p     Params
	r     *rng
	ops   []isa.Op
	dests []uint8
	pop   []Genome
	gen   int
}

// New builds the seeded initial population.
func New(p Params) *Search {
	s := &Search{
		p:     p.withDefaults(),
		ops:   selftest.SlotOps(),
		dests: selftest.SlotDests(),
	}
	s.r = newRng(s.p.Seed)
	s.pop = make([]Genome, 0, s.p.Population)
	for i := 0; i < s.p.Population; i++ {
		s.pop = append(s.pop, s.randomGenome())
	}
	return s
}

// Population returns deep copies of the current generation's genomes,
// in breeding order.
func (s *Search) Population() []Genome {
	out := make([]Genome, len(s.pop))
	for i, g := range s.pop {
		out[i] = cloneGenome(g)
	}
	return out
}

// Advance breeds the next generation from the current one's fitness
// values (index-aligned with Population()): elitism, tournament
// selection, one-point crossover and per-gene mutation, all consuming
// the search's PRNG in a fixed order.
func (s *Search) Advance(fitness []float64) {
	if len(fitness) != len(s.pop) {
		panic(fmt.Sprintf("evolve: %d fitness values for population %d", len(fitness), len(s.pop)))
	}
	order := rankDesc(fitness)
	next := make([]Genome, 0, len(s.pop))
	for i := 0; i < s.p.Elite && i < len(order); i++ {
		next = append(next, cloneGenome(s.pop[order[i]]))
	}
	for len(next) < len(s.pop) {
		a := s.tournament(fitness)
		b := s.tournament(fitness)
		child := s.crossover(s.pop[a], s.pop[b])
		s.mutate(&child)
		next = append(next, child)
	}
	s.pop = next
	s.gen++
}

// rankDesc returns population indices sorted by fitness descending,
// ties broken toward the lower index (stable, deterministic).
func rankDesc(fitness []float64) []int {
	order := make([]int, len(fitness))
	for i := range order {
		order[i] = i
	}
	for i := 1; i < len(order); i++ {
		for j := i; j > 0; j-- {
			a, b := order[j-1], order[j]
			if fitness[a] > fitness[b] || (fitness[a] == fitness[b] && a < b) {
				break
			}
			order[j-1], order[j] = b, a
		}
	}
	return order
}

func (s *Search) tournament(fitness []float64) int {
	best := s.r.intn(len(s.pop))
	for i := 1; i < s.p.Tournament; i++ {
		c := s.r.intn(len(s.pop))
		if fitness[c] > fitness[best] || (fitness[c] == fitness[best] && c < best) {
			best = c
		}
	}
	return best
}

func (s *Search) randomGenome() Genome {
	g := Genome{
		Seed1: s.r.next() & 0xFFFF,
		Seed2: s.r.next() & 0xFFF,
		Taps1: s.p.Taps[s.r.intn(len(s.p.Taps))],
	}
	s.rollReseed(&g)
	g.Slots = make([]Slot, 0, s.p.Slots)
	for i := 0; i < s.p.Slots; i++ {
		g.Slots = append(g.Slots, s.randomSlot())
	}
	return g
}

func (s *Search) randomSlot() Slot {
	return Slot{
		Op:   s.ops[s.r.intn(len(s.ops))],
		Acc:  isa.Acc(s.r.intn(2)),
		Dest: s.dests[s.r.intn(len(s.dests))],
	}
}

// rollReseed draws a fresh reseed-schedule gene: usually none, else a
// period from reseedChoices with two deterministic 16-bit seeds.
func (s *Search) rollReseed(g *Genome) {
	every := reseedChoices[s.r.intn(len(reseedChoices))]
	if every == 0 {
		g.ReseedEvery, g.Reseeds = 0, nil
		return
	}
	g.ReseedEvery = every
	g.Reseeds = []uint64{s.r.next() & 0xFFFF, s.r.next() & 0xFFFF}
}

// crossover combines two parents: one-point crossover on the slot
// vector, coin flips on the scalar LFSR genes (the reseed schedule
// crosses as one unit).
func (s *Search) crossover(a, b Genome) Genome {
	cut := s.r.intn(len(a.Slots) + 1)
	child := Genome{Slots: make([]Slot, 0, len(a.Slots))}
	child.Slots = append(child.Slots, a.Slots[:cut]...)
	child.Slots = append(child.Slots, b.Slots[cut:]...)
	child.Seed1 = pick(s.r, a.Seed1, b.Seed1)
	child.Seed2 = pick(s.r, a.Seed2, b.Seed2)
	child.Taps1 = pick(s.r, a.Taps1, b.Taps1)
	from := a
	if s.r.intn(2) == 1 {
		from = b
	}
	child.ReseedEvery = from.ReseedEvery
	child.Reseeds = append([]uint64(nil), from.Reseeds...)
	return child
}

func pick(r *rng, a, b uint64) uint64 {
	if r.intn(2) == 1 {
		return b
	}
	return a
}

// mutate re-rolls each gene with probability MutationPct.
func (s *Search) mutate(g *Genome) {
	for i := range g.Slots {
		if s.r.pct(s.p.MutationPct) {
			g.Slots[i] = s.randomSlot()
		}
	}
	if s.r.pct(s.p.MutationPct) {
		g.Seed1 = s.r.next() & 0xFFFF
	}
	if s.r.pct(s.p.MutationPct) {
		g.Seed2 = s.r.next() & 0xFFF
	}
	if s.r.pct(s.p.MutationPct) {
		g.Taps1 = s.p.Taps[s.r.intn(len(s.p.Taps))]
	}
	if s.r.pct(s.p.MutationPct) {
		s.rollReseed(g)
	}
}

func cloneGenome(g Genome) Genome {
	g.Slots = append([]Slot(nil), g.Slots...)
	g.Reseeds = append([]uint64(nil), g.Reseeds...)
	return g
}

// rng is a splitmix64 stream: tiny, fast, and — unlike math/rand —
// guaranteed stable across Go releases, which the bit-identical resume
// contract depends on.
type rng struct{ s uint64 }

func newRng(seed int64) *rng { return &rng{s: uint64(seed)} }

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

func (r *rng) pct(p int) bool { return r.intn(100) < p }
