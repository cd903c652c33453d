package kernels

// Structural and reduction kernels. These are type-independent — the
// canonical int64 carrier already encodes each element's host-visible value,
// and wrapping int64 accumulation is exact for every element type — so one
// body serves all 8 types and no registry indirection is needed.

// Select computes dst[i] = cond[i] != 0 ? a[i] : b[i] for i in [lo, hi).
func Select(dst, cond, a, b []int64, lo, hi int64) {
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

// Fill broadcasts the (pre-truncated) value v into dst[lo:hi].
func Fill(dst []int64, v int64, lo, hi int64) {
	dst = dst[lo:hi]
	for i := range dst {
		dst[i] = v
	}
}

// Sum accumulates a[lo:hi] into one wrapping int64 partial sum.
//
// Canonical carriers make the host-view summation direct: signed values are
// sign-extended and sub-64-bit unsigned values zero-extended, so each carrier
// equals its host value; uint64 elements carry raw bits whose int64
// reinterpretation wraps identically to uint64 addition modulo 2^64. Wrapping
// int64 addition is associative, so per-span partials merged in ascending
// span order reproduce the serial accumulation bit-for-bit. Being also
// commutative, it lets the loop keep four independent partial sums, so it
// is not one chain of dependent adds bound by add latency.
func Sum(a []int64, lo, hi int64) int64 {
	a = a[lo:hi]
	var s0, s1, s2, s3 int64
	for len(a) >= 4 {
		s0 += a[0]
		s1 += a[1]
		s2 += a[2]
		s3 += a[3]
		a = a[4:]
	}
	for _, v := range a {
		s0 += v
	}
	return s0 + s1 + s2 + s3
}

// SumSeg accumulates a[lo:hi] into per-segment partials for fixed-length
// segments of segLen elements: vals[k] accumulates segment seg0+k, where
// seg0 is the first segment the span overlaps (the caller's sharding may cut
// spans mid-segment; partials merge in span order, see Sum). Each segment's
// run within the span is summed as one contiguous Sum, so the loop divides
// once per segment rather than once per element.
func SumSeg(a []int64, lo, hi, segLen, seg0 int64, vals []int64) {
	for i := lo; i < hi; {
		seg := i / segLen
		end := min((seg+1)*segLen, hi)
		vals[seg-seg0] += Sum(a, i, end)
		i = end
	}
}
