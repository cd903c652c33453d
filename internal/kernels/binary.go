package kernels

// Element-wise binary kernels and their scalar-broadcast twins. Each body is
// the whole semantics of one (op, type) pair: the S → T conversion
// truncates to the element width, T arithmetic wraps natively, and the
// T → S conversion stores the result (re-extending it into the canonical
// carrier when S is int64). Comparison ops write 0/1 masks into a
// destination of any element type D.

func addK[S, T lane](dst, a, b []S, lo, hi int64) {
	dst, a, b = dst[lo:hi], a[lo:hi], b[lo:hi]
	a, b = a[:len(dst)], b[:len(dst)]
	for i := range dst {
		dst[i] = S(T(a[i]) + T(b[i]))
	}
}

func subK[S, T lane](dst, a, b []S, lo, hi int64) {
	dst, a, b = dst[lo:hi], a[lo:hi], b[lo:hi]
	a, b = a[:len(dst)], b[:len(dst)]
	for i := range dst {
		dst[i] = S(T(a[i]) - T(b[i]))
	}
}

func mulK[S, T lane](dst, a, b []S, lo, hi int64) {
	dst, a, b = dst[lo:hi], a[lo:hi], b[lo:hi]
	a, b = a[:len(dst)], b[:len(dst)]
	for i := range dst {
		dst[i] = S(T(a[i]) * T(b[i]))
	}
}

func andK[S, T lane](dst, a, b []S, lo, hi int64) {
	dst, a, b = dst[lo:hi], a[lo:hi], b[lo:hi]
	a, b = a[:len(dst)], b[:len(dst)]
	for i := range dst {
		dst[i] = S(T(a[i]) & T(b[i]))
	}
}

func orK[S, T lane](dst, a, b []S, lo, hi int64) {
	dst, a, b = dst[lo:hi], a[lo:hi], b[lo:hi]
	a, b = a[:len(dst)], b[:len(dst)]
	for i := range dst {
		dst[i] = S(T(a[i]) | T(b[i]))
	}
}

func xorK[S, T lane](dst, a, b []S, lo, hi int64) {
	dst, a, b = dst[lo:hi], a[lo:hi], b[lo:hi]
	a, b = a[:len(dst)], b[:len(dst)]
	for i := range dst {
		dst[i] = S(T(a[i]) ^ T(b[i]))
	}
}

func xnorK[S, T lane](dst, a, b []S, lo, hi int64) {
	dst, a, b = dst[lo:hi], a[lo:hi], b[lo:hi]
	a, b = a[:len(dst)], b[:len(dst)]
	for i := range dst {
		dst[i] = S(^(T(a[i]) ^ T(b[i])))
	}
}

// minK/maxK store the original operand (identical to its round trip
// through T), matching the reference's Compare-and-pick.
func minK[S, T lane](dst, a, b []S, lo, hi int64) {
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

func maxK[S, T lane](dst, a, b []S, lo, hi int64) {
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

func ltK[D, S, T lane](dst []D, a, b []S, lo, hi int64) {
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

func gtK[D, S, T lane](dst []D, a, b []S, lo, hi int64) {
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

func eqK[D, S, T lane](dst []D, a, b []S, lo, hi int64) {
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
func divSK[S, T signedLane](dst, a, b []S, lo, hi int64) {
	dst, a, b = dst[lo:hi], a[lo:hi], b[lo:hi]
	a, b = a[:len(dst)], b[:len(dst)]
	for i := range dst {
		x, y := T(a[i]), T(b[i])
		switch {
		case y != 0:
			dst[i] = S(x / y)
		case x < 0:
			dst[i] = 1
		default:
			dst[i] = -1
		}
	}
}

// divUK: unsigned division by zero yields the all-ones quotient.
func divUK[S lane, T unsignedLane](dst, a, b []S, lo, hi int64) {
	dst, a, b = dst[lo:hi], a[lo:hi], b[lo:hi]
	a, b = a[:len(dst)], b[:len(dst)]
	for i := range dst {
		if y := T(b[i]); y != 0 {
			dst[i] = S(T(a[i]) / y)
		} else {
			dst[i] = S(^T(0))
		}
	}
}

// Scalar-broadcast forms: the scalar converts to T once, outside the loop.

func addSK[S, T lane](dst, a []S, s int64, lo, hi int64) {
	dst, a = dst[lo:hi], a[lo:hi]
	a = a[:len(dst)]
	y := T(s)
	for i := range dst {
		dst[i] = S(T(a[i]) + y)
	}
}

func subSK[S, T lane](dst, a []S, s int64, lo, hi int64) {
	dst, a = dst[lo:hi], a[lo:hi]
	a = a[:len(dst)]
	y := T(s)
	for i := range dst {
		dst[i] = S(T(a[i]) - y)
	}
}

func mulSK[S, T lane](dst, a []S, s int64, lo, hi int64) {
	dst, a = dst[lo:hi], a[lo:hi]
	a = a[:len(dst)]
	y := T(s)
	for i := range dst {
		dst[i] = S(T(a[i]) * y)
	}
}

func andSK[S, T lane](dst, a []S, s int64, lo, hi int64) {
	dst, a = dst[lo:hi], a[lo:hi]
	a = a[:len(dst)]
	y := T(s)
	for i := range dst {
		dst[i] = S(T(a[i]) & y)
	}
}

func orSK[S, T lane](dst, a []S, s int64, lo, hi int64) {
	dst, a = dst[lo:hi], a[lo:hi]
	a = a[:len(dst)]
	y := T(s)
	for i := range dst {
		dst[i] = S(T(a[i]) | y)
	}
}

func xorSK[S, T lane](dst, a []S, s int64, lo, hi int64) {
	dst, a = dst[lo:hi], a[lo:hi]
	a = a[:len(dst)]
	y := T(s)
	for i := range dst {
		dst[i] = S(T(a[i]) ^ y)
	}
}

func xnorSK[S, T lane](dst, a []S, s int64, lo, hi int64) {
	dst, a = dst[lo:hi], a[lo:hi]
	a = a[:len(dst)]
	y := T(s)
	for i := range dst {
		dst[i] = S(^(T(a[i]) ^ y))
	}
}

func minSK[S, T lane](dst, a []S, s int64, lo, hi int64) {
	dst, a = dst[lo:hi], a[lo:hi]
	a = a[:len(dst)]
	y, ys := T(s), S(s)
	for i := range dst {
		if T(a[i]) <= y {
			dst[i] = a[i]
		} else {
			dst[i] = ys
		}
	}
}

func maxSK[S, T lane](dst, a []S, s int64, lo, hi int64) {
	dst, a = dst[lo:hi], a[lo:hi]
	a = a[:len(dst)]
	y, ys := T(s), S(s)
	for i := range dst {
		if T(a[i]) >= y {
			dst[i] = a[i]
		} else {
			dst[i] = ys
		}
	}
}

func ltSK[D, S, T lane](dst []D, a []S, s int64, lo, hi int64) {
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

func gtSK[D, S, T lane](dst []D, a []S, s int64, lo, hi int64) {
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

func eqSK[D, S, T lane](dst []D, a []S, s int64, lo, hi int64) {
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

func divSSK[S, T signedLane](dst, a []S, s int64, lo, hi int64) {
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
		dst[i] = S(T(a[i]) / y)
	}
}

func divUSK[S lane, T unsignedLane](dst, a []S, s int64, lo, hi int64) {
	dst, a = dst[lo:hi], a[lo:hi]
	a = a[:len(dst)]
	y := T(s)
	if y == 0 {
		allOnes := S(^T(0))
		for i := range dst {
			dst[i] = allOnes
		}
		return
	}
	for i := range dst {
		dst[i] = S(T(a[i]) / y)
	}
}
