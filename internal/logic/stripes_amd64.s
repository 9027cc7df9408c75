//go:build amd64 && !purego

#include "go_asm.h"
#include "textflag.h"

// The cone sweep's stripe interpreters: runProgramStripes at 2 words and
// runProgramStripes4/8 with a stripe in one XMM, one YMM and two YMM
// registers. All three kernels are the text of BODY, expanded under
// three settings of SHIFT (a stripe is 1<<SHIFT bytes), of the vector
// registers V0–V3 and V14, and of HI2/HI3, which keep or drop the two-
// and three-operand instructions for an 8-word stripe's second 32 bytes.
//
// Registers: SI, DI, R8, R9, R10 the code, dst, a0, a1 and a2 arrays,
// R11 vals, R13 the instruction count, BX the pc; per instruction DX and
// CX the addresses of the dst and a0 stripes, AX and R12 scratch; V14
// all ones. VEX encodings only — one legacy-SSE move between them costs
// a state transition per instruction — and VZEROUPPER before RET.
//
// Go assembly has no jump tables, so dispatch is a compare chain in the
// order the opcodes occur in dsp's sweep programs; every handler ends in
// its own copy of it, which gives the branch predictor one history per
// preceding opcode.

#define NEXT \
	INCQ    BX; \
	CMPQ    BX, R13; \
	JGE     done; \
	MOVBLZX (SI)(BX*1), AX; \
	MOVL    (DI)(BX*4), DX; \
	MOVL    (R8)(BX*4), CX; \
	SHLQ    $SHIFT, DX; \
	SHLQ    $SHIFT, CX; \
	ADDQ    R11, DX; \
	ADDQ    R11, CX; \
	CMPL    AX, $const_opMux; \
	JEQ     mux; \
	CMPL    AX, $const_opGood; \
	JEQ     good; \
	CMPL    AX, $const_opAnd2; \
	JEQ     and; \
	CMPL    AX, $const_opMaskWord; \
	JEQ     maskword; \
	CMPL    AX, $const_opBuf; \
	JEQ     buf; \
	CMPL    AX, $const_opXorGood; \
	JEQ     xorgood; \
	CMPL    AX, $const_opXor2; \
	JEQ     xor; \
	CMPL    AX, $const_opOr2; \
	JEQ     or; \
	CMPL    AX, $const_opNot; \
	JEQ     not; \
	CMPL    AX, $const_opXnor2; \
	JEQ     xnor; \
	CMPL    AX, $const_opDetect; \
	JEQ     detect; \
	CMPL    AX, $const_opNand2; \
	JEQ     nand; \
	JMP     nor

// STRIPE leaves in reg the address of the stripe whose slot number is
// this instruction's entry in the array at idx.
#define STRIPE(idx, reg) \
	MOVL (idx)(BX*4), reg; \
	SHLQ $SHIFT, reg; \
	ADDQ R11, reg

// LOADX loads the a0 stripe into V0 (and V1), BIN combines it with the
// a1 stripe, INVERT and STORE finish an instruction.
#define LOADX \
	VMOVDQU (CX), V0; \
	HI2(VMOVDQU 32(CX), V1)

#define BIN(OP) \
	STRIPE(R9, AX); \
	LOADX; \
	OP (AX), V0, V0; \
	HI3(OP 32(AX), V1, V1)

#define INVERT \
	VPXOR V14, V0, V0; \
	HI3(VPXOR V14, V1, V1)

#define STORE \
	VMOVDQU V0, (DX); \
	HI2(VMOVDQU V1, 32(DX)); \
	NEXT

// GOODBIT broadcasts bit a2 of vals[a1], a net's fault-free value, over
// V2; XORGOOD leaves the a0 stripe XOR that in V0 (and V1).
#define GOODBIT \
	MOVL         (R9)(BX*4), AX; \
	MOVQ         (R11)(AX*8), AX; \
	MOVL         (R10)(BX*4), R12; \
	BTQ          R12, AX; \
	SBBQ         AX, AX; \
	VMOVQ        AX, X2; \
	VPBROADCASTQ X2, V2

#define XORGOOD \
	GOODBIT; \
	VPXOR (CX), V2, V0; \
	HI3(VPXOR 32(CX), V2, V1)

// mux is (a1 &^ a0) | (a2 & a0). maskword works on word a2 alone, in
// general registers: a0 & (a1 stripe) | (a1+1 stripe).
#define BODY \
	VPCMPEQD V14, V14, V14; \
	MOVQ     $-1, BX; \
	NEXT; \
mux: \
	LOADX; \
	STRIPE(R9, AX); \
	VPANDN (AX), V0, V2; \
	HI3(VPANDN 32(AX), V1, V3); \
	STRIPE(R10, AX); \
	VPAND  (AX), V0, V0; \
	HI3(VPAND 32(AX), V1, V1); \
	VPOR   V2, V0, V0; \
	HI3(VPOR V3, V1, V1); \
	STORE; \
and: \
	BIN(VPAND); \
	STORE; \
or: \
	BIN(VPOR); \
	STORE; \
xor: \
	BIN(VPXOR); \
	STORE; \
nand: \
	BIN(VPAND); \
	INVERT; \
	STORE; \
nor: \
	BIN(VPOR); \
	INVERT; \
	STORE; \
xnor: \
	BIN(VPXOR); \
	INVERT; \
	STORE; \
buf: \
	LOADX; \
	STORE; \
not: \
	LOADX; \
	INVERT; \
	STORE; \
maskword: \
	STRIPE(R9, R12); \
	MOVL (R10)(BX*4), AX; \
	MOVQ (CX)(AX*8), CX; \
	ANDQ (R12)(AX*8), CX; \
	ADDQ $(1<<SHIFT), R12; \
	ORQ  (R12)(AX*8), CX; \
	MOVQ CX, (DX)(AX*8); \
	NEXT; \
good: \
	GOODBIT; \
	VMOVDQU V2, (DX); \
	HI2(VMOVDQU V2, 32(DX)); \
	NEXT; \
xorgood: \
	XORGOOD; \
	STORE; \
detect: \
	XORGOOD; \
	VPOR (DX), V0, V0; \
	HI3(VPOR 32(DX), V1, V1); \
	STORE; \
done: \
	VZEROUPPER; \
	RET

#define HI2(a, b)
#define HI3(a, b, c)

#define SHIFT 4
#define V0 X0
#define V2 X2
#define V14 X14

// func stripes2AVX2(code *opcode, dst, a0, a1, a2 *int32, vals *uint64, n int)
TEXT ·stripes2AVX2(SB), NOSPLIT, $0-56
	MOVQ code+0(FP), SI
	MOVQ dst+8(FP), DI
	MOVQ a0+16(FP), R8
	MOVQ a1+24(FP), R9
	MOVQ a2+32(FP), R10
	MOVQ vals+40(FP), R11
	MOVQ n+48(FP), R13
	BODY

#undef SHIFT
#undef V0
#undef V2
#undef V14
#define SHIFT 5
#define V0 Y0
#define V1 Y1
#define V2 Y2
#define V3 Y3
#define V14 Y14

// func stripes4AVX2(code *opcode, dst, a0, a1, a2 *int32, vals *uint64, n int)
TEXT ·stripes4AVX2(SB), NOSPLIT, $0-56
	MOVQ code+0(FP), SI
	MOVQ dst+8(FP), DI
	MOVQ a0+16(FP), R8
	MOVQ a1+24(FP), R9
	MOVQ a2+32(FP), R10
	MOVQ vals+40(FP), R11
	MOVQ n+48(FP), R13
	BODY

#undef SHIFT
#undef HI2
#undef HI3
#define SHIFT 6
#define HI2(a, b) a, b
#define HI3(a, b, c) a, b, c

// func stripes8AVX2(code *opcode, dst, a0, a1, a2 *int32, vals *uint64, n int)
TEXT ·stripes8AVX2(SB), NOSPLIT, $0-56
	MOVQ code+0(FP), SI
	MOVQ dst+8(FP), DI
	MOVQ a0+16(FP), R8
	MOVQ a1+24(FP), R9
	MOVQ a2+32(FP), R10
	MOVQ vals+40(FP), R11
	MOVQ n+48(FP), R13
	BODY

// func hasAVX2() bool
TEXT ·hasAVX2(SB), NOSPLIT, $0-1
	MOVB  $0, ret+0(FP)
	XORL  AX, AX
	CPUID
	CMPL  AX, $7
	JLT   no
	MOVL  $1, AX
	XORL  CX, CX
	CPUID
	ANDL  $(3<<27), CX // OSXSAVE and AVX
	CMPL  CX, $(3<<27)
	JNE   no
	XORL  CX, CX
	XGETBV
	ANDL  $6, AX // the OS saves XMM and YMM state
	CMPL  AX, $6
	JNE   no
	MOVL  $7, AX
	XORL  CX, CX
	CPUID
	BTL   $5, BX // AVX2
	SETCS ret+0(FP)

no:
	RET
