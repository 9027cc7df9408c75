//go:build amd64 && !purego

package logic

// stripes_amd64.go binds the cone sweep's assembly kernels
// (stripes_amd64.s): one stripe interpreter per vector width — a 2-word
// stripe in an XMM register, a 4-word stripe in a YMM register, an
// 8-word stripe in two — executing the same instruction stream as the
// Go runners, which stay as the path for every other width, CPU and
// build (-tags purego selects them here) and as the oracle the kernels
// are tested against.

// useAVX2 reports whether the CPU and the operating system support the
// kernels; it is the only thing that selects them.
var useAVX2 = hasAVX2()

// hasAVX2 probes CPUID and XGETBV: AVX2, and YMM state saved by the OS.
func hasAVX2() bool

// stripes2AVX2, stripes4AVX2 and stripes8AVX2 execute n instructions of
// a sweep program against 2-, 4- and 8-word value stripes. They check
// nothing: ConeSim.checkSweep has validated every operand against vals.
//
//go:noescape
func stripes2AVX2(code *opcode, dst, a0, a1, a2 *int32, vals *uint64, n int)

//go:noescape
func stripes4AVX2(code *opcode, dst, a0, a1, a2 *int32, vals *uint64, n int)

//go:noescape
func stripes8AVX2(code *opcode, dst, a0, a1, a2 *int32, vals *uint64, n int)

// stripeKernel is the kernel for each stripe width that has one.
var stripeKernel = [MaxLaneWords + 1]func(code *opcode, dst, a0, a1, a2 *int32, vals *uint64, n int){
	2: stripes2AVX2, 4: stripes4AVX2, 8: stripes8AVX2,
}

// simdStripes runs instructions [ps, pe) on the kernel for stripe width
// lw and reports whether there is one.
func simdStripes(lw int, code []opcode, dst, a0, a1, a2 []int32, vals []uint64, ps, pe int32) bool {
	kernel := stripeKernel[lw]
	if !useAVX2 || kernel == nil {
		return false
	}
	kernel(&code[ps], &dst[ps], &a0[ps], &a1[ps], &a2[ps], &vals[0], int(pe-ps))
	return true
}
