package kernels

import "pimeval/internal/isa"

// Structural and reduction kernels. These are type-independent: select and
// fill move stored elements, and the sums widen each element to its
// canonical int64 value, where wrapping accumulation is exact for every
// element type. The device reaches them through On.

// selectK computes dst[i] = cond[i] != 0 ? a[i] : b[i] for i in [lo, hi)
// over the unsigned views of data of width class D and a condition of
// width class C: select moves bits, so one body serves every signedness.
// The condition becomes an all-ones or all-zeros mask, so the pick is
// arithmetic, not a branch.
func selectK[C, D unsignedLane](dst []D, cond []C, a, b []D, lo, hi int64) {
	dst, a, b = dst[lo:hi], a[lo:hi], b[lo:hi]
	a, b = a[:len(dst)], b[:len(dst)]
	cond = cond[lo:hi][:len(dst)]
	for i, c := range cond {
		x, y := a[i], b[i]
		dst[i] = y ^ (x^y)&-D(bit(c != 0))
	}
}

// fillK broadcasts the (pre-truncated) value v into dst[lo:hi]: it writes
// one element, then doubles the filled prefix with copy, as Slice.Tile
// does.
func fillK[T lane](dst []T, v int64, lo, hi int64) {
	dst = dst[lo:hi]
	if len(dst) == 0 {
		return
	}
	dst[0] = T(v)
	for n := 1; n < len(dst); {
		n += copy(dst[n:], dst[:n])
	}
}

// sumK accumulates a[lo:hi] into one wrapping int64 partial sum.
//
// Each element widens to its host value: signed values sign-extend and
// sub-64-bit unsigned values zero-extend, and uint64 elements keep their
// raw bits, whose int64 reinterpretation wraps identically to uint64
// addition modulo 2^64. Wrapping int64 addition is associative, so
// per-span partials merged in ascending span order reproduce the serial
// accumulation bit-for-bit. Being also commutative, it lets the loop keep
// four independent partial sums, so it is not one chain of dependent adds
// bound by add latency. At 8 and 16 bits the span's aligned words are
// summed word-wise (sumWords) and its head by the same kernel, and the
// element loop takes the tail.
func sumK[T lane](a []T, lo, hi int64) int64 {
	a = a[lo:hi]
	var s0, s1, s2, s3 int64
	if laneBits[T]() <= 16 && long[T](hi-lo) {
		head, words, tail := isa.Words(a)
		s0 = sumK(head, 0, int64(len(head))) + sumWords[T](words)
		a = tail
	}
	for len(a) >= 4 {
		s0 += int64(a[0])
		s1 += int64(a[1])
		s2 += int64(a[2])
		s3 += int64(a[3])
		a = a[4:]
	}
	for _, v := range a {
		s0 += int64(v)
	}
	return s0 + s1 + s2 + s3
}

// sumWords sums the b-bit lanes of words, b = laneBits[T]() <= 16, as
// sumK sums elements. Each word's even and odd lanes add into double-width
// lanes, which fold into the total every 1<<(b-1) words, before any can
// carry: a word adds at most 2(2^b-1) to each, and 2^(b-1) such words fit
// in 2b bits. A signed lane is summed with its sign bit flipped, which
// adds 2^(b-1) to its value; that bias comes off the total once.
func sumWords[T lane](words []uint64) int64 {
	b := laneBits[T]()
	ev, flip, bias := evens(b), uint64(0), uint64(0)
	if ^T(0) < 0 {
		flip = highs(b)
		bias = uint64(len(words)) * uint64(64/b) << (b - 1)
	}
	var total uint64
	for len(words) > 0 {
		n := min(len(words), 1<<(b-1))
		var acc uint64
		for _, x := range words[:n] {
			x ^= flip
			acc += x&ev + x>>b&ev
		}
		if b == 8 {
			acc = acc&0x0000_FFFF_0000_FFFF + acc>>16&0x0000_FFFF_0000_FFFF
		}
		total += acc&0xFFFF_FFFF + acc>>32
		words = words[n:]
	}
	return int64(total - bias)
}

// sumSegK accumulates a[lo:hi] into per-segment partials for fixed-length
// segments of segLen elements: vals[k] accumulates segment seg0+k, where
// seg0 is the first segment the span overlaps (the caller's sharding may cut
// spans mid-segment; partials merge in span order, see sumK). Each
// segment's run within the span is summed as one contiguous sumK, so the
// loop divides once per segment rather than once per element.
func sumSegK[T lane](a []T, lo, hi, segLen, seg0 int64, vals []int64) {
	for i := lo; i < hi; {
		seg := i / segLen
		end := min((seg+1)*segLen, hi)
		vals[seg-seg0] += sumK(a, i, end)
		i = end
	}
}
