// Package isa defines the DSP core's 17-bit instruction set: the four
// encoding formats of the paper's Figure 4, the operation repertoire of
// its Table 2, an assembler/disassembler, and the template-field
// annotations (pseudorandom immediates, register-field masking) consumed
// by the self-test template architecture.
//
// Instruction layout (Figure 4):
//
//	Format 1   [16:12] opcode  [11:8] RegA   [7:4] RegB    [3:0] Dest
//	Format 2   [16:12] opcode  [11:4] value                [3:0] Dest
//	Format 3   [16:12] opcode  [11:8] ----   [7:4] Source  [3:0] ----
//	Format 4   [16:12] 00010   [11:8] ----   [7:4] Source  [3:0] Dest
package isa

import (
	"fmt"
	"strconv"
	"strings"
)

// Width is the instruction width in bits.
const Width = 17

// NumRegs is the register-file size.
const NumRegs = 16

// Op identifies an operation kind, independent of which accumulator a
// MAC-family instruction targets.
type Op uint8

// Operation kinds. MAC-family semantics (see package dsp for the exact
// datapath): prod is the sign-extended 18-bit product of the two source
// registers, acc the selected 18-bit accumulator, and every MAC-family
// instruction writes the limited 8-bit MAC result to its Dest register.
const (
	// OpNop does nothing.
	OpNop Op = iota
	// OpOut drives the 8-bit output port with the source register.
	OpOut
	// OpMov copies Source to Dest through the stage-3 buffer.
	OpMov
	// OpLdi loads an 8-bit immediate into Dest.
	OpLdi
	// OpLdRnd is the template load: an unused opcode trapped by the
	// template architecture, which fills the immediate field from LFSR1
	// and forwards it to the core as a plain OpLdi.
	OpLdRnd
	// OpMpy sets acc = prod.
	OpMpy
	// OpMpyT sets acc = truncate(prod).
	OpMpyT
	// OpMacP sets acc = prod + acc.
	OpMacP
	// OpMacM sets acc = acc - prod.
	OpMacM
	// OpMactP sets acc = truncate(prod + acc).
	OpMactP
	// OpMactM sets acc = truncate(acc - prod).
	OpMactM
	// OpShift sets acc = shift(acc, amount) with the variable shifter
	// mode; the signed 4-bit amount is the low nibble of RegA's value.
	OpShift
	// OpMpyShift sets acc = prod + (acc << 1) (fixed left-1 shifter mode).
	OpMpyShift
	// OpMpyShiftMac sets acc = prod + shift(acc, amount): a MAC through
	// the variable shifter mode, amount from RegA's low nibble.
	OpMpyShiftMac
	numOps
)

// Acc selects a MAC accumulator.
type Acc uint8

// Accumulator selectors.
const (
	AccA Acc = 0
	AccB Acc = 1
)

// String returns "A" or "B".
func (a Acc) String() string {
	if a == AccB {
		return "B"
	}
	return "A"
}

// Format enumerates the four encoding formats of Figure 4.
type Format uint8

// Encoding formats.
const (
	Format1 Format = 1 // opcode, RegA, RegB, Dest
	Format2 Format = 2 // opcode, 8-bit value, Dest
	Format3 Format = 3 // opcode, Source
	Format4 Format = 4 // opcode, Source, Dest
)

// opInfo describes one operation kind.
type opInfo struct {
	name      string // mnemonic stem; MAC-family gets the Acc letter appended
	format    Format
	macFamily bool // uses the MAC datapath and takes an Acc selector
	opcodeA   uint32
	opcodeB   uint32 // only for macFamily; otherwise unused
}

var opTable = [numOps]opInfo{
	OpNop:         {name: "NOP", format: Format1, opcodeA: 0x00},
	OpOut:         {name: "OUT", format: Format3, opcodeA: 0x01},
	OpMov:         {name: "MOV", format: Format4, opcodeA: 0x02},
	OpLdi:         {name: "LD", format: Format2, opcodeA: 0x04},
	OpLdRnd:       {name: "LDRND", format: Format2, opcodeA: 0x07},
	OpMpy:         {name: "MPY", format: Format1, macFamily: true, opcodeA: 0x08, opcodeB: 0x09},
	OpMpyT:        {name: "MPYT", format: Format1, macFamily: true, opcodeA: 0x0A, opcodeB: 0x0B},
	OpMacP:        {name: "MAC+", format: Format1, macFamily: true, opcodeA: 0x0C, opcodeB: 0x0D},
	OpMacM:        {name: "MAC-", format: Format1, macFamily: true, opcodeA: 0x0E, opcodeB: 0x0F},
	OpMactP:       {name: "MACT+", format: Format1, macFamily: true, opcodeA: 0x10, opcodeB: 0x11},
	OpMactM:       {name: "MACT-", format: Format1, macFamily: true, opcodeA: 0x12, opcodeB: 0x13},
	OpShift:       {name: "SHIFT", format: Format1, macFamily: true, opcodeA: 0x14, opcodeB: 0x15},
	OpMpyShift:    {name: "MPYSHIFT", format: Format1, macFamily: true, opcodeA: 0x16, opcodeB: 0x17},
	OpMpyShiftMac: {name: "MPYSHIFTMAC", format: Format1, macFamily: true, opcodeA: 0x18, opcodeB: 0x19},
}

// Ops returns every operation kind in a stable order.
func Ops() []Op {
	out := make([]Op, 0, int(numOps))
	for op := Op(0); op < numOps; op++ {
		out = append(out, op)
	}
	return out
}

// MacFamily reports whether the operation uses the MAC datapath (and so
// takes an accumulator selector and writes the MAC result to Dest).
func (op Op) MacFamily() bool { return opTable[op].macFamily }

// Format returns the operation's encoding format.
func (op Op) Format() Format { return opTable[op].format }

// Mnemonic returns the bare mnemonic stem ("MAC+", "LD", ...).
func (op Op) Mnemonic() string { return opTable[op].name }

// UsesSourceRegs reports whether the instruction reads RegA/RegB.
func (op Op) UsesSourceRegs() bool { return opTable[op].macFamily }

// WritesDest reports whether the instruction writes a destination
// register.
func (op Op) WritesDest() bool {
	switch op {
	case OpNop, OpOut:
		return false
	}
	return true
}

// Instr is one decoded (or to-be-encoded) instruction, plus template
// annotations used by the self-test program generator: RndImm marks the
// immediate as "filled from LFSR1 each iteration" and MaskRegs marks the
// register fields as "XOR-masked with LFSR2 each iteration".
type Instr struct {
	Op      Op
	Acc     Acc   // meaningful only for MAC-family ops
	RA      uint8 // Format 1: first source (also shift amount register)
	RB      uint8 // Format 1: second source
	RD      uint8 // destination register
	Src     uint8 // Format 3/4 source register
	Imm     uint8 // Format 2 immediate
	Comment string

	RndImm   bool // template: immediate comes from LFSR1
	MaskRegs bool // template: register fields XOR LFSR2
}

// opcode returns the 5-bit opcode for the instruction.
func (i Instr) opcode() uint32 {
	info := opTable[i.Op]
	if info.macFamily && i.Acc == AccB {
		return info.opcodeB
	}
	return info.opcodeA
}

// Encode packs the instruction into its 17-bit binary form (template
// annotations are not represented in the encoding; the template
// architecture resolves them before the bits reach the core).
func (i Instr) Encode() uint32 {
	op := i.opcode() << 12
	switch opTable[i.Op].format {
	case Format1:
		return op | uint32(i.RA&0xF)<<8 | uint32(i.RB&0xF)<<4 | uint32(i.RD&0xF)
	case Format2:
		return op | uint32(i.Imm)<<4 | uint32(i.RD&0xF)
	case Format3:
		return op | uint32(i.Src&0xF)<<4
	case Format4:
		return op | uint32(i.Src&0xF)<<4 | uint32(i.RD&0xF)
	}
	panic("isa: unknown format")
}

// opcodeEntry is what a 5-bit opcode decodes to; ok is false for an
// unassigned opcode.
type opcodeEntry struct {
	op  Op
	acc Acc
	ok  bool
}

// decodeTable maps each 5-bit opcode back to its (Op, Acc).
var decodeTable = func() (t [32]opcodeEntry) {
	for op := Op(0); op < numOps; op++ {
		info := opTable[op]
		t[info.opcodeA] = opcodeEntry{op, AccA, true}
		if info.macFamily {
			t[info.opcodeB] = opcodeEntry{op, AccB, true}
		}
	}
	return t
}()

// Decode unpacks a 17-bit word. Unassigned opcodes return an error (the
// hardware would treat them as traps for the template architecture).
func Decode(word uint32) (Instr, error) {
	if word >= 1<<Width {
		return Instr{}, fmt.Errorf("isa: word %#x exceeds %d bits", word, Width)
	}
	oc := word >> 12 & 0x1F
	entry := decodeTable[oc]
	if !entry.ok {
		return Instr{}, fmt.Errorf("isa: unassigned opcode %#05b", oc)
	}
	i := Instr{Op: entry.op, Acc: entry.acc}
	switch opTable[i.Op].format {
	case Format1:
		i.RA = uint8(word >> 8 & 0xF)
		i.RB = uint8(word >> 4 & 0xF)
		i.RD = uint8(word & 0xF)
	case Format2:
		i.Imm = uint8(word >> 4 & 0xFF)
		i.RD = uint8(word & 0xF)
	case Format3:
		i.Src = uint8(word >> 4 & 0xF)
	case Format4:
		i.Src = uint8(word >> 4 & 0xF)
		i.RD = uint8(word & 0xF)
	}
	return i, nil
}

// String renders the instruction in assembler syntax.
func (i Instr) String() string {
	info := opTable[i.Op]
	mn := info.name
	if info.macFamily {
		// Insert the accumulator letter before a trailing +/- sign:
		// MAC+ on AccB renders as MACB+.
		if strings.HasSuffix(mn, "+") || strings.HasSuffix(mn, "-") {
			mn = mn[:len(mn)-1] + i.Acc.String() + mn[len(mn)-1:]
		} else {
			mn += i.Acc.String()
		}
	}
	switch info.format {
	case Format1:
		if i.Op == OpNop {
			return mn
		}
		return fmt.Sprintf("%s R%d,R%d,R%d", mn, i.RA, i.RB, i.RD)
	case Format2:
		if i.RndImm || i.Op == OpLdRnd {
			return fmt.Sprintf("%s RND,R%d", mn, i.RD)
		}
		return fmt.Sprintf("%s %#02x,R%d", mn, i.Imm, i.RD)
	case Format3:
		return fmt.Sprintf("%s R%d", mn, i.Src)
	case Format4:
		return fmt.Sprintf("%s R%d,R%d", mn, i.Src, i.RD)
	}
	panic("isa: unknown format")
}

// mnemonicIndex maps rendered mnemonics (with accumulator letters) back
// to (Op, Acc) for the assembler.
var mnemonicIndex = func() map[string]struct {
	op  Op
	acc Acc
} {
	m := make(map[string]struct {
		op  Op
		acc Acc
	})
	add := func(s string, op Op, acc Acc) {
		m[s] = struct {
			op  Op
			acc Acc
		}{op, acc}
	}
	for op := Op(0); op < numOps; op++ {
		info := opTable[op]
		if !info.macFamily {
			add(info.name, op, AccA)
			continue
		}
		for _, acc := range []Acc{AccA, AccB} {
			mn := info.name
			if strings.HasSuffix(mn, "+") || strings.HasSuffix(mn, "-") {
				mn = mn[:len(mn)-1] + acc.String() + mn[len(mn)-1:]
			} else {
				mn += acc.String()
			}
			add(mn, op, acc)
		}
	}
	return m
}()

// Parse assembles one line ("MACB+ R6,R5,R7", "LD 0x70,R3",
// "LD RND,R1", "OUT R2"). Comments start with "//" or ";".
func Parse(line string) (Instr, error) {
	if i := strings.Index(line, "//"); i >= 0 {
		line = line[:i]
	}
	if i := strings.Index(line, ";"); i >= 0 {
		line = line[:i]
	}
	line = strings.TrimSpace(line)
	if line == "" {
		return Instr{}, fmt.Errorf("isa: empty line")
	}
	fields := strings.Fields(line)
	mn := strings.ToUpper(fields[0])
	entry, ok := mnemonicIndex[mn]
	if !ok {
		return Instr{}, fmt.Errorf("isa: unknown mnemonic %q", fields[0])
	}
	i := Instr{Op: entry.op, Acc: entry.acc}
	var operands []string
	if len(fields) > 1 {
		operands = strings.Split(strings.Join(fields[1:], ""), ",")
	}
	reg := func(s string) (uint8, error) {
		s = strings.ToUpper(strings.TrimSpace(s))
		if !strings.HasPrefix(s, "R") {
			return 0, fmt.Errorf("isa: bad register %q", s)
		}
		v, err := strconv.Atoi(s[1:])
		if err != nil || v < 0 || v >= NumRegs {
			return 0, fmt.Errorf("isa: bad register %q", s)
		}
		return uint8(v), nil
	}
	need := func(n int) error {
		if len(operands) != n {
			return fmt.Errorf("isa: %s needs %d operands, got %d", mn, n, len(operands))
		}
		return nil
	}
	var err error
	switch opTable[i.Op].format {
	case Format1:
		if i.Op == OpNop {
			if err := need(0); err != nil {
				return Instr{}, err
			}
			return i, nil
		}
		if err := need(3); err != nil {
			return Instr{}, err
		}
		if i.RA, err = reg(operands[0]); err != nil {
			return Instr{}, err
		}
		if i.RB, err = reg(operands[1]); err != nil {
			return Instr{}, err
		}
		if i.RD, err = reg(operands[2]); err != nil {
			return Instr{}, err
		}
	case Format2:
		if err := need(2); err != nil {
			return Instr{}, err
		}
		val := strings.TrimSpace(operands[0])
		switch {
		case strings.EqualFold(val, "RND"):
			i.RndImm = true
			if i.Op == OpLdi {
				i.Op = OpLdRnd
			}
		case len(val) >= 2 && val[0] == '"' && val[len(val)-1] == '"':
			// Quoted binary immediate, the paper's Figure 7 style:
			// LD "01110000",R3.
			v, err := strconv.ParseUint(val[1:len(val)-1], 2, 8)
			if err != nil {
				return Instr{}, fmt.Errorf("isa: bad binary immediate %q", val)
			}
			i.Imm = uint8(v)
		default:
			v, err := strconv.ParseUint(strings.ToLower(val), 0, 16)
			if err != nil || v > 0xFF {
				return Instr{}, fmt.Errorf("isa: bad immediate %q", operands[0])
			}
			i.Imm = uint8(v)
		}
		if i.RD, err = reg(operands[1]); err != nil {
			return Instr{}, err
		}
	case Format3:
		if err := need(1); err != nil {
			return Instr{}, err
		}
		if i.Src, err = reg(operands[0]); err != nil {
			return Instr{}, err
		}
	case Format4:
		if err := need(2); err != nil {
			return Instr{}, err
		}
		if i.Src, err = reg(operands[0]); err != nil {
			return Instr{}, err
		}
		if i.RD, err = reg(operands[1]); err != nil {
			return Instr{}, err
		}
	}
	return i, nil
}

// Assemble parses a multi-line program, skipping blank and comment-only
// lines. Errors carry 1-based line numbers.
func Assemble(src string) ([]Instr, error) {
	var prog []Instr
	for ln, line := range strings.Split(src, "\n") {
		stripped := line
		if i := strings.Index(stripped, "//"); i >= 0 {
			stripped = stripped[:i]
		}
		if i := strings.Index(stripped, ";"); i >= 0 {
			stripped = stripped[:i]
		}
		if strings.TrimSpace(stripped) == "" {
			continue
		}
		in, err := Parse(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", ln+1, err)
		}
		prog = append(prog, in)
	}
	return prog, nil
}

// Disassemble renders a program with one instruction per line, with
// binary encodings in the style of the paper's Figure 7.
func Disassemble(prog []Instr) string {
	var sb strings.Builder
	for _, in := range prog {
		fmt.Fprintf(&sb, "%017b  %s", in.Encode(), in.String())
		if in.Comment != "" {
			fmt.Fprintf(&sb, "  // %s", in.Comment)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
