package lfsr

import (
	"testing"
	"testing/quick"
)

func TestMaximalPeriods(t *testing.T) {
	// Every built-in polynomial up to 20 bits must be maximal length
	// (2^w − 1). Larger widths are spot-checked by statistics instead.
	for _, w := range SupportedWidths() {
		if w > 20 {
			continue
		}
		l := MustNew(w, 1)
		want := uint64(1)<<uint(w) - 1
		if got := l.Period(); got != want {
			t.Errorf("width %d: period %d, want %d", w, got, want)
		}
	}
}

func TestSeventeenBitFullSequence(t *testing.T) {
	// The pseudorandom BIST baseline relies on the 17-bit LFSR visiting
	// all 131,071 non-zero states exactly once.
	l := MustNew(17, 1)
	seen := make(map[uint64]bool, 1<<17)
	for i := 0; i < 1<<17-1; i++ {
		s := l.Next()
		if s == 0 {
			t.Fatal("LFSR reached the all-zero state")
		}
		if seen[s] {
			t.Fatalf("state %x repeated at step %d", s, i)
		}
		seen[s] = true
	}
	if len(seen) != 1<<17-1 {
		t.Fatalf("visited %d states, want %d", len(seen), 1<<17-1)
	}
}

func TestSeedHandling(t *testing.T) {
	l := MustNew(8, 0)
	if l.State() == 0 {
		t.Fatal("zero seed must be replaced")
	}
	l2 := MustNew(8, 0xFFF) // masked to width
	if l2.State() != 0xFF {
		t.Fatalf("seed not masked: %x", l2.State())
	}
	if _, err := New(21, 1); err == nil {
		t.Fatal("unsupported width should error")
	}
	if _, err := NewWithTaps(1, 1, 1); err == nil {
		t.Fatal("width 1 should error")
	}
	if _, err := NewWithTaps(8, 0, 1); err == nil {
		t.Fatal("empty taps should error")
	}
}

func TestNextBits(t *testing.T) {
	a := MustNew(8, 1)
	bl := MustNew(8, 1)
	want := uint64(0)
	for i := 0; i < 5; i++ {
		want = a.Next()
	}
	if got := bl.NextBits(5); got != want {
		t.Fatalf("NextBits(5)=%x, want %x", got, want)
	}
}

func TestLFSRStatisticallyBalanced(t *testing.T) {
	// Over a full period each bit is 1 for 2^(w-1) of the 2^w−1 states.
	l := MustNew(12, 1)
	counts := make([]int, 12)
	period := 1<<12 - 1
	for i := 0; i < period; i++ {
		s := l.Next()
		for b := 0; b < 12; b++ {
			if s>>uint(b)&1 == 1 {
				counts[b]++
			}
		}
	}
	for b, c := range counts {
		if c != 1<<11 {
			t.Errorf("bit %d: %d ones, want %d", b, c, 1<<11)
		}
	}
}

func TestMISRDistinguishesStreams(t *testing.T) {
	m, err := NewMISR(16)
	if err != nil {
		t.Fatal(err)
	}
	stream := []uint64{1, 2, 3, 4, 5, 6, 7, 8}
	for _, w := range stream {
		m.Absorb(w)
	}
	sig := m.Signature()
	m.Reset()
	if m.Signature() != 0 {
		t.Fatal("Reset did not clear")
	}
	// Single-bit corruption anywhere must change the signature.
	for i := range stream {
		for bit := 0; bit < 16; bit++ {
			m.Reset()
			for j, w := range stream {
				if j == i {
					w ^= 1 << uint(bit)
				}
				m.Absorb(w)
			}
			if m.Signature() == sig {
				t.Fatalf("corruption at word %d bit %d aliased", i, bit)
			}
		}
	}
}

func TestMISRLinear(t *testing.T) {
	// MISR compaction is linear over GF(2): sig(a xor b) = sig(a) xor
	// sig(b) when both streams start from signature 0.
	f := func(a, b [6]uint16) bool {
		sig := func(s [6]uint16, mask [6]uint16) uint64 {
			m, _ := NewMISR(16)
			for i := range s {
				m.Absorb(uint64(s[i] ^ mask[i]))
			}
			return m.Signature()
		}
		var zero [6]uint16
		sa := sig(a, zero)
		sb := sig(b, zero)
		var ab [6]uint16
		for i := range ab {
			ab[i] = a[i] ^ b[i]
		}
		return sig(ab, zero) == sa^sb
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMaximalTaps(t *testing.T) {
	// The ga_search taps pool: every polynomial returned must be
	// genuinely maximal-length, the builtin must lead, and the list
	// must be deterministic.
	taps, err := MaximalTaps(16, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(taps) != 4 {
		t.Fatalf("got %d taps, want 4", len(taps))
	}
	if taps[0] != 0xD008 {
		t.Fatalf("pool does not lead with the builtin polynomial: %#x", taps[0])
	}
	seen := map[uint64]bool{}
	for _, tp := range taps {
		if seen[tp] {
			t.Fatalf("duplicate polynomial %#x", tp)
		}
		seen[tp] = true
		l, err := NewWithTaps(16, tp, 1)
		if err != nil {
			t.Fatal(err)
		}
		if p := l.Period(); p != (1<<16)-1 {
			t.Fatalf("taps %#x: period %d, want %d", tp, p, (1<<16)-1)
		}
	}
	again, err := MaximalTaps(16, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range taps {
		if taps[i] != again[i] {
			t.Fatalf("MaximalTaps not deterministic at %d: %#x vs %#x", i, taps[i], again[i])
		}
	}
	if _, err := MaximalTaps(2, 1<<20); err == nil {
		t.Fatal("impossible pool size did not error")
	}
}

// SupportedWidths lists the widths with built-in primitive polynomials.
func SupportedWidths() []int {
	ws := make([]int, 0, len(primitiveTaps))
	for w := range primitiveTaps {
		ws = append(ws, w)
	}
	for i := 1; i < len(ws); i++ {
		for j := i; j > 0 && ws[j-1] > ws[j]; j-- {
			ws[j-1], ws[j] = ws[j], ws[j-1]
		}
	}
	return ws
}

// Period measures the sequence length by stepping until the seed state
// recurs. Intended for tests and small widths; O(period).
func (l *LFSR) Period() uint64 {
	start := l.state
	var count uint64
	for {
		l.Next()
		count++
		if l.state == start {
			return count
		}
	}
}

// Reset clears the signature to zero.
func (m *MISR) Reset() { m.state = 0 }
