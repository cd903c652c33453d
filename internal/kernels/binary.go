package kernels

// Element-wise binary kernels and their scalar-broadcast twins. Each body is
// the whole semantics of one (op, type) pair: the int64 → T conversion
// truncates to the element width, T arithmetic wraps natively, and the
// T → int64 conversion re-extends to the canonical carrier. Comparison ops
// write 0/1 masks, canonical under every destination type.

func addK[T lane](dst, a, b []int64, lo, hi int64) {
	dst, a, b = dst[lo:hi], a[lo:hi], b[lo:hi]
	a, b = a[:len(dst)], b[:len(dst)]
	for i := range dst {
		dst[i] = int64(T(a[i]) + T(b[i]))
	}
}

func subK[T lane](dst, a, b []int64, lo, hi int64) {
	dst, a, b = dst[lo:hi], a[lo:hi], b[lo:hi]
	a, b = a[:len(dst)], b[:len(dst)]
	for i := range dst {
		dst[i] = int64(T(a[i]) - T(b[i]))
	}
}

func mulK[T lane](dst, a, b []int64, lo, hi int64) {
	dst, a, b = dst[lo:hi], a[lo:hi], b[lo:hi]
	a, b = a[:len(dst)], b[:len(dst)]
	for i := range dst {
		dst[i] = int64(T(a[i]) * T(b[i]))
	}
}

func andK[T lane](dst, a, b []int64, lo, hi int64) {
	dst, a, b = dst[lo:hi], a[lo:hi], b[lo:hi]
	a, b = a[:len(dst)], b[:len(dst)]
	for i := range dst {
		dst[i] = int64(T(a[i]) & T(b[i]))
	}
}

func orK[T lane](dst, a, b []int64, lo, hi int64) {
	dst, a, b = dst[lo:hi], a[lo:hi], b[lo:hi]
	a, b = a[:len(dst)], b[:len(dst)]
	for i := range dst {
		dst[i] = int64(T(a[i]) | T(b[i]))
	}
}

func xorK[T lane](dst, a, b []int64, lo, hi int64) {
	dst, a, b = dst[lo:hi], a[lo:hi], b[lo:hi]
	a, b = a[:len(dst)], b[:len(dst)]
	for i := range dst {
		dst[i] = int64(T(a[i]) ^ T(b[i]))
	}
}

func xnorK[T lane](dst, a, b []int64, lo, hi int64) {
	dst, a, b = dst[lo:hi], a[lo:hi], b[lo:hi]
	a, b = a[:len(dst)], b[:len(dst)]
	for i := range dst {
		dst[i] = int64(^(T(a[i]) ^ T(b[i])))
	}
}

// minK/maxK return the original canonical operand (identical to its
// round trip through T), matching the reference's Compare-and-pick.
func minK[T lane](dst, a, b []int64, lo, hi int64) {
	dst, a, b = dst[lo:hi], a[lo:hi], b[lo:hi]
	a, b = a[:len(dst)], b[:len(dst)]
	for i := range dst {
		if T(a[i]) <= T(b[i]) {
			dst[i] = a[i]
		} else {
			dst[i] = b[i]
		}
	}
}

func maxK[T lane](dst, a, b []int64, lo, hi int64) {
	dst, a, b = dst[lo:hi], a[lo:hi], b[lo:hi]
	a, b = a[:len(dst)], b[:len(dst)]
	for i := range dst {
		if T(a[i]) >= T(b[i]) {
			dst[i] = a[i]
		} else {
			dst[i] = b[i]
		}
	}
}

func ltK[T lane](dst, a, b []int64, lo, hi int64) {
	dst, a, b = dst[lo:hi], a[lo:hi], b[lo:hi]
	a, b = a[:len(dst)], b[:len(dst)]
	for i := range dst {
		if T(a[i]) < T(b[i]) {
			dst[i] = 1
		} else {
			dst[i] = 0
		}
	}
}

func gtK[T lane](dst, a, b []int64, lo, hi int64) {
	dst, a, b = dst[lo:hi], a[lo:hi], b[lo:hi]
	a, b = a[:len(dst)], b[:len(dst)]
	for i := range dst {
		if T(a[i]) > T(b[i]) {
			dst[i] = 1
		} else {
			dst[i] = 0
		}
	}
}

func eqK[T lane](dst, a, b []int64, lo, hi int64) {
	dst, a, b = dst[lo:hi], a[lo:hi], b[lo:hi]
	a, b = a[:len(dst)], b[:len(dst)]
	for i := range dst {
		if T(a[i]) == T(b[i]) {
			dst[i] = 1
		} else {
			dst[i] = 0
		}
	}
}

// divSK implements the restoring-array divider's semantics for signed types:
// division by zero yields the all-ones magnitude quotient sign-adjusted by
// the dividend (canonically -1 for non-negative, +1 for negative dividends),
// and MinInt / -1 wraps back to MinInt — which Go's native division provides.
func divSK[T signedLane](dst, a, b []int64, lo, hi int64) {
	dst, a, b = dst[lo:hi], a[lo:hi], b[lo:hi]
	a, b = a[:len(dst)], b[:len(dst)]
	for i := range dst {
		x, y := T(a[i]), T(b[i])
		switch {
		case y != 0:
			dst[i] = int64(x / y)
		case x < 0:
			dst[i] = 1
		default:
			dst[i] = -1
		}
	}
}

// divUK: unsigned division by zero yields the all-ones quotient.
func divUK[T unsignedLane](dst, a, b []int64, lo, hi int64) {
	dst, a, b = dst[lo:hi], a[lo:hi], b[lo:hi]
	a, b = a[:len(dst)], b[:len(dst)]
	for i := range dst {
		if y := T(b[i]); y != 0 {
			dst[i] = int64(T(a[i]) / y)
		} else {
			dst[i] = int64(^T(0))
		}
	}
}

// Scalar-broadcast forms: the scalar converts to T once, outside the loop.

func addSK[T lane](dst, a []int64, s int64, lo, hi int64) {
	dst, a = dst[lo:hi], a[lo:hi]
	a = a[:len(dst)]
	y := T(s)
	for i := range dst {
		dst[i] = int64(T(a[i]) + y)
	}
}

func subSK[T lane](dst, a []int64, s int64, lo, hi int64) {
	dst, a = dst[lo:hi], a[lo:hi]
	a = a[:len(dst)]
	y := T(s)
	for i := range dst {
		dst[i] = int64(T(a[i]) - y)
	}
}

func mulSK[T lane](dst, a []int64, s int64, lo, hi int64) {
	dst, a = dst[lo:hi], a[lo:hi]
	a = a[:len(dst)]
	y := T(s)
	for i := range dst {
		dst[i] = int64(T(a[i]) * y)
	}
}

func andSK[T lane](dst, a []int64, s int64, lo, hi int64) {
	dst, a = dst[lo:hi], a[lo:hi]
	a = a[:len(dst)]
	y := T(s)
	for i := range dst {
		dst[i] = int64(T(a[i]) & y)
	}
}

func orSK[T lane](dst, a []int64, s int64, lo, hi int64) {
	dst, a = dst[lo:hi], a[lo:hi]
	a = a[:len(dst)]
	y := T(s)
	for i := range dst {
		dst[i] = int64(T(a[i]) | y)
	}
}

func xorSK[T lane](dst, a []int64, s int64, lo, hi int64) {
	dst, a = dst[lo:hi], a[lo:hi]
	a = a[:len(dst)]
	y := T(s)
	for i := range dst {
		dst[i] = int64(T(a[i]) ^ y)
	}
}

func xnorSK[T lane](dst, a []int64, s int64, lo, hi int64) {
	dst, a = dst[lo:hi], a[lo:hi]
	a = a[:len(dst)]
	y := T(s)
	for i := range dst {
		dst[i] = int64(^(T(a[i]) ^ y))
	}
}

func minSK[T lane](dst, a []int64, s int64, lo, hi int64) {
	dst, a = dst[lo:hi], a[lo:hi]
	a = a[:len(dst)]
	y := T(s)
	for i := range dst {
		if T(a[i]) <= y {
			dst[i] = a[i]
		} else {
			dst[i] = s
		}
	}
}

func maxSK[T lane](dst, a []int64, s int64, lo, hi int64) {
	dst, a = dst[lo:hi], a[lo:hi]
	a = a[:len(dst)]
	y := T(s)
	for i := range dst {
		if T(a[i]) >= y {
			dst[i] = a[i]
		} else {
			dst[i] = s
		}
	}
}

func ltSK[T lane](dst, a []int64, s int64, lo, hi int64) {
	dst, a = dst[lo:hi], a[lo:hi]
	a = a[:len(dst)]
	y := T(s)
	for i := range dst {
		if T(a[i]) < y {
			dst[i] = 1
		} else {
			dst[i] = 0
		}
	}
}

func gtSK[T lane](dst, a []int64, s int64, lo, hi int64) {
	dst, a = dst[lo:hi], a[lo:hi]
	a = a[:len(dst)]
	y := T(s)
	for i := range dst {
		if T(a[i]) > y {
			dst[i] = 1
		} else {
			dst[i] = 0
		}
	}
}

func eqSK[T lane](dst, a []int64, s int64, lo, hi int64) {
	dst, a = dst[lo:hi], a[lo:hi]
	a = a[:len(dst)]
	y := T(s)
	for i := range dst {
		if T(a[i]) == y {
			dst[i] = 1
		} else {
			dst[i] = 0
		}
	}
}

func divSSK[T signedLane](dst, a []int64, s int64, lo, hi int64) {
	dst, a = dst[lo:hi], a[lo:hi]
	a = a[:len(dst)]
	y := T(s)
	if y == 0 {
		for i := range dst {
			if T(a[i]) < 0 {
				dst[i] = 1
			} else {
				dst[i] = -1
			}
		}
		return
	}
	for i := range dst {
		dst[i] = int64(T(a[i]) / y)
	}
}

func divUSK[T unsignedLane](dst, a []int64, s int64, lo, hi int64) {
	dst, a = dst[lo:hi], a[lo:hi]
	a = a[:len(dst)]
	y := T(s)
	if y == 0 {
		allOnes := int64(^T(0))
		for i := range dst {
			dst[i] = allOnes
		}
		return
	}
	for i := range dst {
		dst[i] = int64(T(a[i]) / y)
	}
}
