package kernels

import "pimeval/internal/isa"

// Word-at-a-time lanes (SWAR, SIMD within a register). A word-wise kernel
// views its span through isa.Words and runs one step per aligned 64-bit
// word, 8/sizeof(T) elements at once; the elements before the first word
// go through the same kernel on the head span, which is too short for
// words and so takes the element loop, and the elements after the last
// word through its element loop. Each element is computed by exactly one
// loop. Spans shorter than wordMin bytes, and operands whose addresses
// disagree mod 8 (a fused kernel's stack buffer, a tiny allocation), take
// the element loop alone.
//
// The lane width b is laneBits[T](), a constant in each instantiation, so
// choosing the word path costs one length test per call. Every mask and
// shift derives from b: a constant shift too wide for 8-bit lanes would
// not vet.

// wordMin is the shortest span, in bytes, that runs word-wise. It exceeds
// the longest head, 7 bytes, so a kernel's call on its own head takes the
// element loop; the microprogram checks' one-element calls never reach
// isa.Words.
const wordMin = 32

// laneBits is T's width in bits. Each conversion truncates at T's width,
// so the switch folds to a constant in every instantiation.
func laneBits[T lane]() int {
	one := uint64(1)
	switch {
	case T(one<<8) == 0:
		return 8
	case T(one<<16) == 0:
		return 16
	case T(one<<32) == 0:
		return 32
	}
	return 64
}

// lows is the word with the lowest bit of every b-bit lane set, highs the
// word with the highest. At b = 64 the shift yields 0, so lows is 1.
func lows(b int) uint64 { return ^uint64(0) / (uint64(1)<<b - 1) }

func highs(b int) uint64 { return lows(b) << (b - 1) }

// evens is the word with the low b bits of every 2b-bit lane set: the
// even b-bit lanes.
func evens(b int) uint64 { return lows(2*b) * (uint64(1)<<b - 1) }

// splat is the word with v's low b bits in every b-bit lane.
func splat(v uint64, b int) uint64 { return (v & (uint64(1)<<b - 1)) * lows(b) }

// zeroBytes has 1 in each byte lane where x's byte is zero and 0 in the
// others. It is exact: no lane's sum carries into the next, unlike the
// borrow-based zero-byte test.
func zeroBytes(x uint64) uint64 {
	const low7 = 0x7F7F_7F7F_7F7F_7F7F
	return ^((x&low7 + low7) | x | low7) >> 7
}

// long reports whether a span of n T elements runs word-wise: whether it
// holds wordMin bytes. It inlines, so a kernel tests the span's length
// before it calls anything.
func long[T lane](n int64) bool { return n*int64(laneBits[T]()) >= 8*wordMin }

// words2 views the equal-length span operands dst and a as words: wd and
// wa are the aligned words over elements [h, t), and the elements outside
// them are left to the element loop. ok is false for operands at different
// alignments mod 8.
func words2[D, T lane](dst []D, a []T) (wd, wa []uint64, h, t int64, ok bool) {
	hd, wd, td := isa.Words(dst)
	ha, wa, _ := isa.Words(a)
	if len(ha) != len(hd) {
		return nil, nil, 0, 0, false
	}
	return wd, wa, int64(len(hd)), int64(len(dst) - len(td)), true
}

// words3 is words2 with a second operand b.
func words3[D, T lane](dst []D, a, b []T) (wd, wa, wb []uint64, h, t int64, ok bool) {
	if wd, wa, h, t, ok = words2(dst, a); !ok {
		return nil, nil, nil, 0, 0, false
	}
	hb, wb, _ := isa.Words(b)
	if int64(len(hb)) != h {
		return nil, nil, nil, 0, 0, false
	}
	return wd, wa, wb, h, t, true
}

// bit is 1 for true and 0 for false. It compiles to no instruction of its
// own, so a compare stored through it is a SETcc, not a branch.
func bit(c bool) uint8 {
	var x uint8
	if c {
		x = 1
	}
	return x
}
