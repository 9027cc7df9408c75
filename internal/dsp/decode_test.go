package dsp

import (
	"testing"

	"repro/internal/isa"
)

// TestDecodeTableMatchesDecode holds the second stage's opcode table to
// isa.Decode followed by decodeCtrl on every 17-bit word: the same
// control word, immediate and destination, and a bubble exactly where
// isa.Decode rejects the opcode.
func TestDecodeTableMatchesDecode(t *testing.T) {
	bubbles := 0
	for w := uint32(0); w < 1<<isa.Width; w++ {
		c, imm, dest, ok := decode(w)
		in, err := isa.Decode(w)
		if ok != (err == nil) {
			t.Fatalf("word %#05x: table valid=%t, isa.Decode error %v", w, ok, err)
		}
		if !ok {
			bubbles++
			continue
		}
		if want := decodeCtrl(in.Op, in.Acc); c != want {
			t.Fatalf("word %#05x (%v): table ctrl %+v, decodeCtrl %+v", w, in, c, want)
		}
		if imm != in.Imm || dest != in.RD {
			t.Fatalf("word %#05x (%v): table imm %#x dest %d, isa.Decode imm %#x dest %d",
				w, in, imm, dest, in.Imm, in.RD)
		}
	}
	// Nine opcodes are unassigned (0x03, 0x05, 0x06 and 0x1A–0x1F), each
	// with 2¹² words.
	if want := 9 << 12; bubbles != want {
		t.Fatalf("%d bubble words, want %d", bubbles, want)
	}
}
