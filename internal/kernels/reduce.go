package kernels

// Structural and reduction kernels. These are type-independent: select and
// fill move stored elements, and the sums widen each element to its
// canonical int64 value, where wrapping accumulation is exact for every
// element type. The device reaches them through On.

// selectK computes dst[i] = cond[i] != 0 ? a[i] : b[i] for i in [lo, hi)
// over the unsigned views of data of width class D and a condition of
// width class C: select moves bits, so one body serves every signedness.
func selectK[C, D unsignedLane](dst []D, cond []C, a, b []D, lo, hi int64) {
	dst, a, b = dst[lo:hi], a[lo:hi], b[lo:hi]
	a, b = a[:len(dst)], b[:len(dst)]
	cond = cond[lo:hi][:len(dst)]
	for i, c := range cond {
		if c != 0 {
			dst[i] = a[i]
		} else {
			dst[i] = b[i]
		}
	}
}

// fillK broadcasts the (pre-truncated) value v into dst[lo:hi].
func fillK[T lane](dst []T, v int64, lo, hi int64) {
	dst = dst[lo:hi]
	x := T(v)
	for i := range dst {
		dst[i] = x
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
// bound by add latency.
func sumK[T lane](a []T, lo, hi int64) int64 {
	a = a[lo:hi]
	var s0, s1, s2, s3 int64
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
