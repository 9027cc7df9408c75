package fault

import (
	"fmt"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/logic"
)

// audit.go is the compiled kernel's guard. A window is one lane word (up
// to 63 faults) of one batch over one segment. A seeded sample of a
// call's windows is audited: the goroutine that replayed the batch keeps
// the sampled words' entering lane states, counts and detection cycles,
// and once the batch is done — before the segment's barrier — replays
// each sampled window on a logic.CompiledSim of its own. Lane 0 starts
// from the good machine's recorded state at the segment's start, the
// inputs come from the trace rows, and every lane's detection cycles,
// count and, for a survivor, exit state must come out as the batch left
// them. Agreement inside every window and at every boundary is agreement
// over the whole run, so a sample of windows checks what a whole-run
// re-simulation of a sample of faults would, at the cost of the windows.
//
// The audit changes nothing it checks. The sample is a pure function of
// (ShadowSeed, segment start, batch, word) and, for the default's window
// of the first segment, of the fault count and lane width: nothing that
// depends on who claims what. The audit writes no result and moves no
// faultsim.* counter, and it reads the trace, not the VectorSeq, whose
// one reader is the filler. A divergence is recorded and the call runs
// to its end; Simulate then returns a *DivergenceError.

// defaultShadowSample is the share of windows a call audits when
// SimOptions.ShadowSample is zero, on top of the one window of the first
// segment the default always audits (newAuditor). The Table-1 op (dsp,
// 8 192 LFSR vectors, 0.24–0.39 s on a 2-vCPU host) has 514 windows at
// ~11 ms of reference simulation each; the first segment's window is 64
// cycles, 1.4–3.8 ms. Over ShadowSeeds 1–20 the default audited 37
// windows, one to four a call, and spent 11.4 ms of audit time per call
// on the mean, 3.5 % of the op (docs/RESILIENCE.md).
const defaultShadowSample = 0.001

// DivergenceError reports that the audit of at least one window
// disagreed with the compiled kernel. The call ran to its end, but its
// result is not returned: a window vouches only for itself. Segment (its
// start cycle), Batch and Word locate the first divergent window in
// (segment, batch, word) order.
type DivergenceError struct {
	Segment int `json:"segment"`
	Batch   int `json:"batch"`
	Word    int `json:"word"`
	// Lanes describes each disagreeing lane of that window.
	Lanes []string `json:"lanes"`
	// Divergent counts the windows that disagreed, of Audited audited.
	Divergent int `json:"divergent"`
	Audited   int `json:"audited"`
}

func (e *DivergenceError) Error() string {
	return fmt.Sprintf("fault: %d of %d audited windows disagree with the compiled kernel, first at segment %d batch %d word %d (%d lanes)",
		e.Divergent, e.Audited, e.Segment, e.Batch, e.Word, len(e.Lanes))
}

// plant, when set, runs after every batch replay on the goroutine that
// replayed it, before the batch's windows are audited. Tests use it to
// corrupt what the batch wrote, or to panic inside the audit step.
var plant func(s *segment, b int)

// auditor is one call's audit: its sample and what it found, shared by
// every goroutine that claims batches.
type auditor struct {
	frac float64
	seed uint64
	// floor, when not negative, is the window of the first segment every
	// default call audits whatever the sample draws: window k is word
	// k%lw of batch k/lw.
	floor, lw int

	windows atomic.Int64 // windows audited
	nanos   atomic.Int64 // time spent auditing, summed over goroutines

	mu        sync.Mutex
	first     *DivergenceError
	divergent int
}

// newAuditor returns the audit of a call over faults faults at lw lane
// words per batch.
func newAuditor(opts SimOptions, faults, lw int) *auditor {
	a := &auditor{frac: opts.ShadowSample, seed: uint64(opts.ShadowSeed), floor: -1, lw: lw}
	if a.seed == 0 {
		a.seed = 1
	}
	if a.frac == 0 {
		a.frac = defaultShadowSample
		// Every fault is in the first segment, so its windows are known
		// before the run: one per 63 faults, in list order.
		if windows := (faults + 62) / 63; windows > 0 {
			a.floor = int(mix64(a.seed) % uint64(windows))
		}
	}
	return a
}

// sample returns the words of batch b, one bit each for the first nw,
// whose windows in the segment starting at start are audited.
func (a *auditor) sample(start, b, nw int) uint64 {
	if a == nil || a.frac <= 0 {
		return 0
	}
	var words uint64
	for w := 0; w < nw; w++ {
		if windowSampled(a.frac, a.seed, start, b, w) {
			words |= 1 << uint(w)
		}
	}
	if start == 0 && a.floor >= 0 && a.floor/a.lw == b {
		words |= 1 << uint(a.floor%a.lw)
	}
	return words
}

// windowSampled is the sample: a hash of the seed and the window, read
// as a uniform draw in [0, 1).
func windowSampled(frac float64, seed uint64, start, b, w int) bool {
	if frac >= 1 {
		return true
	}
	h := seed
	for _, v := range [...]int{start, b, w} {
		h = mix64(h ^ uint64(v))
	}
	return float64(h>>11) < frac*(1<<53)
}

// mix64 is the SplitMix64 step.
func mix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// record notes a divergent window, keeping the first in (segment, batch,
// word) order so the error does not depend on who audited what.
func (a *auditor) record(start, b, w int, lanes []string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.divergent++
	if f := a.first; f == nil || start < f.Segment ||
		start == f.Segment && (b < f.Batch || b == f.Batch && w < f.Word) {
		a.first = &DivergenceError{Segment: start, Batch: b, Word: w, Lanes: lanes}
	}
}

// err returns the call's divergence, or nil.
func (a *auditor) err() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.first == nil {
		return nil
	}
	e := *a.first
	e.Divergent, e.Audited = a.divergent, int(a.windows.Load())
	return &e
}

// windowAudit is what one claimer keeps of a sampled batch, and the
// simulator it audits the batch's windows on.
type windowAudit struct {
	ref *logic.CompiledSim
	// words holds a bit per audited word of the current batch; the slices
	// hold the batch's lanes as they entered the segment, in lane order.
	words            uint64
	faults           []int
	states           []uint64 // stateWords per lane
	counts, detected []int32
	good, exit       []uint64
	// vecs holds the segment's inputs, read from the trace; lanes, wantC
	// and wantD are one word's replay (replayLanes).
	vecs         []uint64
	lanes        [][]uint64
	wantC, wantD []int32
}

// keep records batch b's entering lanes when any of its words is
// sampled. It runs before the replay writes anything.
func (s *segment) keep(au *windowAudit, b int, batch []int, batchStart int) {
	au.words = s.au.sample(s.start, b, (len(batch)+62)/63)
	if au.words == 0 {
		return
	}
	r := s.r
	au.faults = append(au.faults[:0], batch...)
	au.states, au.counts, au.detected = au.states[:0], au.counts[:0], au.detected[:0]
	for li, fi := range batch {
		au.states = append(au.states, r.states[batchStart+li]...)
		au.counts = append(au.counts, r.counts[fi])
		au.detected = append(au.detected, r.res.DetectedAt[fi])
	}
}

// audit replays batch b's sampled windows and records any disagreement
// with what the replay left in the run. Its panics, like the replay's,
// are recovered into the segment (see replay).
func (s *segment) audit(au *windowAudit, b int) {
	if plant != nil {
		plant(s, b)
	}
	if au.words == 0 {
		return
	}
	from := time.Now()
	n := s.prog.Netlist()
	if au.ref == nil {
		sw := (len(n.DFFs()) + 63) / 64
		au.ref = logic.NewCompiledSim(s.prog)
		au.good, au.exit = make([]uint64, sw), make([]uint64, sw)
	}
	s.trace.StateInto(s.start, n.DFFs(), au.good)
	au.vecs = au.vecs[:0]
	for cyc := s.start; cyc < s.end; cyc++ {
		var v uint64
		for bi, in := range n.Inputs() {
			v |= s.trace.Bit(cyc, in) << uint(bi)
		}
		au.vecs = append(au.vecs, v)
	}
	for words := au.words; words != 0; words &= words - 1 {
		w := bits.TrailingZeros64(words)
		if lanes := s.auditWord(au, b, w); len(lanes) > 0 {
			s.au.record(s.start, b, w, lanes)
		}
		s.au.windows.Add(1)
	}
	s.au.nanos.Add(int64(time.Since(from)))
}

// auditWord replays word w of batch b over the segment on the reference
// simulator, from the lanes' entering state, and describes every lane
// whose detection cycle, count or exit state the replay left otherwise.
func (s *segment) auditWord(au *windowAudit, b, w int) []string {
	r, sw := s.r, len(au.good)
	lo, hi := w*63, min(w*63+63, len(au.faults))
	au.lanes = au.lanes[:0]
	for li := lo; li < hi; li++ {
		au.lanes = append(au.lanes, au.states[li*sw:(li+1)*sw])
	}
	au.wantC = append(au.wantC[:0], au.counts[lo:hi]...)
	au.wantD = append(au.wantD[:0], au.detected[lo:hi]...)
	replayLanes(au.ref, s.prog.Netlist().Inputs(), stuckAt(r.faults), au.faults[lo:hi], au.good, au.lanes, s.start, au.vecs, true,
		func(k, cycle int) bool {
			au.wantC[k]++
			if au.wantD[k] < 0 {
				au.wantD[k] = int32(cycle)
			}
			return au.wantC[k] >= int32(r.ndet)
		})

	// Survivors sit at the front of the batch's range in lane order, so a
	// survivor's slot counts the survivors before it in the batch.
	var lanes []string
	slot := b * 63 * s.lw
	for li := 0; li < hi; li++ {
		fi := au.faults[li]
		survived := r.counts[fi] < int32(r.ndet)
		if li >= lo {
			k := li - lo
			gotC, gotD := r.counts[fi], r.res.DetectedAt[fi]
			switch {
			case gotC != au.wantC[k] || gotD != au.wantD[k]:
				lanes = append(lanes, fmt.Sprintf("fault %d: detected at %d with count %d, the audit says %d with count %d",
					fi, gotD, gotC, au.wantD[k], au.wantC[k]))
			case survived:
				au.ref.LaneState(uint(k+1), au.exit)
				if !slices.Equal(au.exit, r.states[slot]) {
					lanes = append(lanes, fmt.Sprintf("fault %d: exit state %x, the audit says %x", fi, r.states[slot], au.exit))
				}
			}
		}
		if survived {
			slot++
		}
	}
	return lanes
}
