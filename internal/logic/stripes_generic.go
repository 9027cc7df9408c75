//go:build !amd64 || purego

package logic

// useAVX2 is false where the build has no assembly stripe kernels: the
// Go runners run every cone sweep.
var useAVX2 = false

func simdStripes(lw int, code []opcode, dst, a0, a1, a2 []int32, vals []uint64, ps, pe int32) bool {
	return false
}
