//go:build !amd64 || purego

package pir

// hasAVX2 is false off amd64 and under the purego tag: xorWords is the
// portable loop.
const hasAVX2 = false

// xorWords folds src into acc lane-wise with the portable unrolled loop.
// Both slices must have equal length.
func xorWords(acc, src []uint64) { xorWordsGo(acc, src) }
