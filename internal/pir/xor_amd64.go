//go:build amd64 && !purego

package pir

// hasAVX2 reports whether this CPU executes AVX2 and the OS saves the YMM
// registers across context switches. It is read once, at package init, and
// decides for the life of the process which body xorWords runs.
var hasAVX2 = detectAVX2()

// xorWords folds src into acc lane-wise. On an AVX2 host the 16-word blocks
// go through xorBlocksAVX2 (four 32-byte loads, XORs and stores, 128 bytes
// per iteration) and the tail of fewer than 16 words through xorWordsGo;
// elsewhere xorWordsGo does it all. Both slices must have equal length.
func xorWords(acc, src []uint64) {
	if len(acc) != len(src) {
		panic("pir: xorWords length mismatch")
	}
	n := len(acc) &^ 15
	if !hasAVX2 || n == 0 {
		xorWordsGo(acc, src)
		return
	}
	xorBlocksAVX2(&acc[0], &src[0], n/16)
	if n < len(acc) {
		xorWordsGo(acc[n:], src[n:])
	}
}

// xorBlocksAVX2 XORs blocks 16-word (128-byte) blocks of src into dst;
// blocks must be at least 1. Implemented in xor_amd64.s.
//
//go:noescape
func xorBlocksAVX2(dst, src *uint64, blocks int)

// cpuid and xgetbv are the two instructions detectAVX2 reads (xor_amd64.s).
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax, edx uint32)

// detectAVX2 is the check the Intel SDM prescribes (§14.3): CPUID leaf 1
// reports AVX and OSXSAVE, XCR0 shows the OS saving SSE and AVX state, and
// CPUID leaf 7 reports AVX2.
func detectAVX2() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	const avx2 = 1 << 5
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}
