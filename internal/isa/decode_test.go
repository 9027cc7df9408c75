package isa

import (
	"fmt"
	"testing"
)

// referenceDecode decodes a 17-bit word by scanning opTable for its
// opcode, the slow way, with the same fields and errors as Decode.
func referenceDecode(word uint32) (Instr, error) {
	oc := word >> 12 & 0x1F
	for op := Op(0); op < numOps; op++ {
		info := opTable[op]
		var i Instr
		switch {
		case info.opcodeA == oc:
			i = Instr{Op: op, Acc: AccA}
		case info.macFamily && info.opcodeB == oc:
			i = Instr{Op: op, Acc: AccB}
		default:
			continue
		}
		switch info.format {
		case Format1:
			i.RA, i.RB, i.RD = uint8(word>>8&0xF), uint8(word>>4&0xF), uint8(word&0xF)
		case Format2:
			i.Imm, i.RD = uint8(word>>4&0xFF), uint8(word&0xF)
		case Format3:
			i.Src = uint8(word >> 4 & 0xF)
		case Format4:
			i.Src, i.RD = uint8(word>>4&0xF), uint8(word&0xF)
		}
		return i, nil
	}
	return Instr{}, fmt.Errorf("isa: unassigned opcode %#05b", oc)
}

// TestDecodeMatchesOpTableScan decodes every 17-bit word and holds the
// instruction and the error text to referenceDecode.
func TestDecodeMatchesOpTableScan(t *testing.T) {
	unassigned := 0
	for word := uint32(0); word < 1<<Width; word++ {
		got, err := Decode(word)
		want, wantErr := referenceDecode(word)
		if got != want || fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("word %#05x: Decode %+v, %v; reference %+v, %v", word, got, err, want, wantErr)
		}
		if err != nil {
			unassigned++
		}
	}
	// 32 opcodes, 5 non-MAC and 9 MAC ops with two each: 9 unassigned.
	if want := 9 << 12; unassigned != want {
		t.Errorf("%d words rejected, want %d", unassigned, want)
	}
}
