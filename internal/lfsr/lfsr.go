// Package lfsr provides linear feedback shift registers and a MISR
// (multiple-input signature register), the pseudorandom pattern sources
// and response compactor of the paper's self-test template architecture.
//
// LFSR1 in the template architecture fills load-instruction immediate
// fields, LFSR2 XOR-masks register fields to rotate register coverage
// between loop iterations, and a plain 17-bit LFSR drives the raw
// pseudorandom-BIST baseline of Section 3.5.
package lfsr

import (
	"fmt"
	"sync"

	"repro/internal/obs"
)

// ctrReseeds counts every LFSR (re)seeding on the default observability
// registry — construction and explicit Reseed calls both count, so a
// trace shows how many independent pseudorandom streams a run consumed.
var ctrReseeds = obs.Default().Counter("lfsr.reseeds")

// primitiveTaps maps register width to a tap mask for a maximal-length
// Fibonacci LFSR (taps from the standard XNOR/XOR tables; bit i set means
// stage i, counting stage 1 as bit 0, feeds the XOR).
var primitiveTaps = map[int]uint64{
	2:  0x3,
	3:  0x6,
	4:  0xC,
	5:  0x14,
	6:  0x30,
	7:  0x60,
	8:  0xB8,
	9:  0x110,
	10: 0x240,
	11: 0x500,
	12: 0xE08,
	13: 0x1C80,
	14: 0x3802,
	15: 0x6000,
	16: 0xD008,
	17: 0x12000,
	18: 0x20400,
	19: 0x72000,
	20: 0x90000,
	24: 0xE10000,
	32: 0xA3000000,
}

// maximalCache memoizes MaximalTaps scans per width: the scan is a
// brute-force period check (O(n · 2^width) steps), cheap enough for the
// template widths but not worth repeating per search.
var maximalCache struct {
	sync.Mutex
	byWidth map[int][]uint64
}

// MaximalTaps returns the first n tap masks (in a fixed, deterministic
// order) that give a maximal-length sequence at the given width: the
// built-in primitive polynomial first, then candidate masks in
// increasing numeric order, each verified by stepping the register
// through its full 2^width − 1 period. Only masks with the top stage
// tapped are considered — that keeps the state update invertible, so
// every trajectory is purely periodic and the check terminates. The
// result is the ga_search polynomial gene pool: every entry is a
// legitimate maximal-length LFSR1 feedback choice. Intended for small
// widths (the scan is O(n · 2^width)); results are memoized.
func MaximalTaps(width, n int) ([]uint64, error) {
	if width < 2 || width > 24 {
		return nil, fmt.Errorf("lfsr: MaximalTaps width %d out of range 2..24", width)
	}
	if n <= 0 {
		return nil, fmt.Errorf("lfsr: MaximalTaps n %d <= 0", n)
	}
	maximalCache.Lock()
	defer maximalCache.Unlock()
	if maximalCache.byWidth == nil {
		maximalCache.byWidth = make(map[int][]uint64)
	}
	cached := maximalCache.byWidth[width]
	if len(cached) >= n {
		return append([]uint64(nil), cached[:n]...), nil
	}
	found := cached
	if len(found) == 0 {
		if builtin, ok := primitiveTaps[width]; ok {
			found = append(found, builtin)
		}
	}
	top := uint64(1) << uint(width-1)
	for mask := top; mask < top<<1 && len(found) < n; mask++ {
		if len(found) > 0 && mask == found[0] {
			continue // the built-in leads the list; don't repeat it
		}
		if isMaximal(width, mask) {
			found = append(found, mask)
		}
	}
	if len(found) < n {
		return nil, fmt.Errorf("lfsr: width %d has only %d maximal tap masks with the top stage tapped, %d requested",
			width, len(found), n)
	}
	maximalCache.byWidth[width] = found
	return append([]uint64(nil), found[:n]...), nil
}

// isMaximal steps an LFSR with the given mask from seed 1 and reports
// whether the seed recurs exactly at step 2^width − 1 and no earlier.
func isMaximal(width int, taps uint64) bool {
	l, err := NewWithTaps(width, taps, 1)
	if err != nil {
		return false
	}
	want := widthMask(width)
	start := l.State()
	for step := uint64(1); step <= want; step++ {
		if l.Next() == start {
			return step == want
		}
	}
	return false
}

// LFSR is a Fibonacci linear feedback shift register of up to 64 bits.
// With a primitive tap polynomial and a non-zero seed, it cycles through
// all 2^width − 1 non-zero states.
type LFSR struct {
	state uint64
	taps  uint64
	width int
}

// New returns an LFSR with a built-in primitive polynomial for the given
// width, seeded with the non-zero seed (seed 0 is replaced by 1, the
// conventional reset value, because the all-zero state is a fixed point).
func New(width int, seed uint64) (*LFSR, error) {
	taps, ok := primitiveTaps[width]
	if !ok {
		return nil, fmt.Errorf("lfsr: no built-in primitive polynomial for width %d", width)
	}
	return NewWithTaps(width, taps, seed)
}

// MustNew is New for widths known to be supported; it panics otherwise.
func MustNew(width int, seed uint64) *LFSR {
	l, err := New(width, seed)
	if err != nil {
		panic(err)
	}
	return l
}

// NewWithTaps returns an LFSR with an explicit tap mask.
func NewWithTaps(width int, taps uint64, seed uint64) (*LFSR, error) {
	if width < 2 || width > 64 {
		return nil, fmt.Errorf("lfsr: width %d out of range 2..64", width)
	}
	mask := widthMask(width)
	if taps&mask == 0 {
		return nil, fmt.Errorf("lfsr: empty tap mask")
	}
	seed &= mask
	if seed == 0 {
		seed = 1
	}
	ctrReseeds.Add(1)
	return &LFSR{state: seed, taps: taps & mask, width: width}, nil
}

// Reseed restarts the register from a new seed (0 is replaced by 1, as
// in New) without changing the polynomial.
func (l *LFSR) Reseed(seed uint64) {
	seed &= widthMask(l.width)
	if seed == 0 {
		seed = 1
	}
	l.state = seed
	ctrReseeds.Add(1)
}

func widthMask(width int) uint64 {
	if width == 64 {
		return ^uint64(0)
	}
	return uint64(1)<<uint(width) - 1
}

// State returns the current register contents without advancing.
func (l *LFSR) State() uint64 { return l.state }

// Next advances one step and returns the new state.
func (l *LFSR) Next() uint64 {
	fb := parity64(l.state & l.taps)
	l.state = (l.state << 1 & widthMask(l.width)) | fb
	return l.state
}

// NextBits advances k steps and returns the last state (a cheap way to
// decorrelate successive draws when one state is consumed per field).
func (l *LFSR) NextBits(k int) uint64 {
	var v uint64
	for i := 0; i < k; i++ {
		v = l.Next()
	}
	return v
}

func parity64(v uint64) uint64 {
	v ^= v >> 32
	v ^= v >> 16
	v ^= v >> 8
	v ^= v >> 4
	v ^= v >> 2
	v ^= v >> 1
	return v & 1
}

// MISR is a multiple-input signature register: an LFSR whose state is
// additionally XORed with a parallel input word each cycle, compacting a
// response stream into a single signature.
type MISR struct {
	state uint64
	taps  uint64
	width int
}

// NewMISR returns a MISR with the built-in primitive polynomial for the
// width and an all-zero initial signature.
func NewMISR(width int) (*MISR, error) {
	taps, ok := primitiveTaps[width]
	if !ok {
		return nil, fmt.Errorf("lfsr: no built-in primitive polynomial for width %d", width)
	}
	return &MISR{taps: taps, width: width}, nil
}

// Absorb folds one response word into the signature.
func (m *MISR) Absorb(word uint64) {
	fb := parity64(m.state & m.taps)
	m.state = ((m.state<<1 | fb) ^ word) & widthMask(m.width)
}

// Signature returns the current compacted signature.
func (m *MISR) Signature() uint64 { return m.state }
