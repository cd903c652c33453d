package kernels

// Element-wise binary kernels and their scalar-broadcast twins. Each body is
// the whole semantics of one (op, type) pair over storage of machine type T:
// T arithmetic wraps natively at the element width. Comparison ops write
// 0/1 masks into a destination of width class D, which holds the same bits
// for either signedness of that width.

func addK[T lane](dst, a, b []T, lo, hi int64) {
	dst, a, b = dst[lo:hi], a[lo:hi], b[lo:hi]
	a, b = a[:len(dst)], b[:len(dst)]
	for i := range dst {
		dst[i] = a[i] + b[i]
	}
}

func subK[T lane](dst, a, b []T, lo, hi int64) {
	dst, a, b = dst[lo:hi], a[lo:hi], b[lo:hi]
	a, b = a[:len(dst)], b[:len(dst)]
	for i := range dst {
		dst[i] = a[i] - b[i]
	}
}

func mulK[T lane](dst, a, b []T, lo, hi int64) {
	dst, a, b = dst[lo:hi], a[lo:hi], b[lo:hi]
	a, b = a[:len(dst)], b[:len(dst)]
	for i := range dst {
		dst[i] = a[i] * b[i]
	}
}

func andK[T lane](dst, a, b []T, lo, hi int64) {
	dst, a, b = dst[lo:hi], a[lo:hi], b[lo:hi]
	a, b = a[:len(dst)], b[:len(dst)]
	for i := range dst {
		dst[i] = a[i] & b[i]
	}
}

func orK[T lane](dst, a, b []T, lo, hi int64) {
	dst, a, b = dst[lo:hi], a[lo:hi], b[lo:hi]
	a, b = a[:len(dst)], b[:len(dst)]
	for i := range dst {
		dst[i] = a[i] | b[i]
	}
}

func xorK[T lane](dst, a, b []T, lo, hi int64) {
	dst, a, b = dst[lo:hi], a[lo:hi], b[lo:hi]
	a, b = a[:len(dst)], b[:len(dst)]
	for i := range dst {
		dst[i] = a[i] ^ b[i]
	}
}

func xnorK[T lane](dst, a, b []T, lo, hi int64) {
	dst, a, b = dst[lo:hi], a[lo:hi], b[lo:hi]
	a, b = a[:len(dst)], b[:len(dst)]
	for i := range dst {
		dst[i] = ^(a[i] ^ b[i])
	}
}

// minK/maxK store the operand they pick, matching the reference's
// Compare-and-pick.
func minK[T lane](dst, a, b []T, lo, hi int64) {
	dst, a, b = dst[lo:hi], a[lo:hi], b[lo:hi]
	a, b = a[:len(dst)], b[:len(dst)]
	for i := range dst {
		if a[i] <= b[i] {
			dst[i] = a[i]
		} else {
			dst[i] = b[i]
		}
	}
}

func maxK[T lane](dst, a, b []T, lo, hi int64) {
	dst, a, b = dst[lo:hi], a[lo:hi], b[lo:hi]
	a, b = a[:len(dst)], b[:len(dst)]
	for i := range dst {
		if a[i] >= b[i] {
			dst[i] = a[i]
		} else {
			dst[i] = b[i]
		}
	}
}

func ltK[D unsignedLane, T lane](dst []D, a, b []T, lo, hi int64) {
	dst, a, b = dst[lo:hi], a[lo:hi], b[lo:hi]
	a, b = a[:len(dst)], b[:len(dst)]
	for i := range dst {
		if a[i] < b[i] {
			dst[i] = 1
		} else {
			dst[i] = 0
		}
	}
}

func gtK[D unsignedLane, T lane](dst []D, a, b []T, lo, hi int64) {
	dst, a, b = dst[lo:hi], a[lo:hi], b[lo:hi]
	a, b = a[:len(dst)], b[:len(dst)]
	for i := range dst {
		if a[i] > b[i] {
			dst[i] = 1
		} else {
			dst[i] = 0
		}
	}
}

func eqK[D unsignedLane, T lane](dst []D, a, b []T, lo, hi int64) {
	dst, a, b = dst[lo:hi], a[lo:hi], b[lo:hi]
	a, b = a[:len(dst)], b[:len(dst)]
	for i := range dst {
		if a[i] == b[i] {
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
func divSK[T signedLane](dst, a, b []T, lo, hi int64) {
	dst, a, b = dst[lo:hi], a[lo:hi], b[lo:hi]
	a, b = a[:len(dst)], b[:len(dst)]
	for i := range dst {
		x, y := a[i], b[i]
		switch {
		case y != 0:
			dst[i] = x / y
		case x < 0:
			dst[i] = 1
		default:
			dst[i] = -1
		}
	}
}

// divUK: unsigned division by zero yields the all-ones quotient.
func divUK[T unsignedLane](dst, a, b []T, lo, hi int64) {
	dst, a, b = dst[lo:hi], a[lo:hi], b[lo:hi]
	a, b = a[:len(dst)], b[:len(dst)]
	for i := range dst {
		if y := b[i]; y != 0 {
			dst[i] = a[i] / y
		} else {
			dst[i] = ^T(0)
		}
	}
}

// Scalar-broadcast forms: the scalar converts to T once, outside the loop.

func addSK[T lane](dst, a []T, s int64, lo, hi int64) {
	dst, a = dst[lo:hi], a[lo:hi]
	a = a[:len(dst)]
	y := T(s)
	for i := range dst {
		dst[i] = a[i] + y
	}
}

func subSK[T lane](dst, a []T, s int64, lo, hi int64) {
	dst, a = dst[lo:hi], a[lo:hi]
	a = a[:len(dst)]
	y := T(s)
	for i := range dst {
		dst[i] = a[i] - y
	}
}

func mulSK[T lane](dst, a []T, s int64, lo, hi int64) {
	dst, a = dst[lo:hi], a[lo:hi]
	a = a[:len(dst)]
	y := T(s)
	for i := range dst {
		dst[i] = a[i] * y
	}
}

func andSK[T lane](dst, a []T, s int64, lo, hi int64) {
	dst, a = dst[lo:hi], a[lo:hi]
	a = a[:len(dst)]
	y := T(s)
	for i := range dst {
		dst[i] = a[i] & y
	}
}

func orSK[T lane](dst, a []T, s int64, lo, hi int64) {
	dst, a = dst[lo:hi], a[lo:hi]
	a = a[:len(dst)]
	y := T(s)
	for i := range dst {
		dst[i] = a[i] | y
	}
}

func xorSK[T lane](dst, a []T, s int64, lo, hi int64) {
	dst, a = dst[lo:hi], a[lo:hi]
	a = a[:len(dst)]
	y := T(s)
	for i := range dst {
		dst[i] = a[i] ^ y
	}
}

func xnorSK[T lane](dst, a []T, s int64, lo, hi int64) {
	dst, a = dst[lo:hi], a[lo:hi]
	a = a[:len(dst)]
	y := T(s)
	for i := range dst {
		dst[i] = ^(a[i] ^ y)
	}
}

func minSK[T lane](dst, a []T, s int64, lo, hi int64) {
	dst, a = dst[lo:hi], a[lo:hi]
	a = a[:len(dst)]
	y := T(s)
	for i := range dst {
		if a[i] <= y {
			dst[i] = a[i]
		} else {
			dst[i] = y
		}
	}
}

func maxSK[T lane](dst, a []T, s int64, lo, hi int64) {
	dst, a = dst[lo:hi], a[lo:hi]
	a = a[:len(dst)]
	y := T(s)
	for i := range dst {
		if a[i] >= y {
			dst[i] = a[i]
		} else {
			dst[i] = y
		}
	}
}

func ltSK[D unsignedLane, T lane](dst []D, a []T, s int64, lo, hi int64) {
	dst, a = dst[lo:hi], a[lo:hi]
	a = a[:len(dst)]
	y := T(s)
	for i := range dst {
		if a[i] < y {
			dst[i] = 1
		} else {
			dst[i] = 0
		}
	}
}

func gtSK[D unsignedLane, T lane](dst []D, a []T, s int64, lo, hi int64) {
	dst, a = dst[lo:hi], a[lo:hi]
	a = a[:len(dst)]
	y := T(s)
	for i := range dst {
		if a[i] > y {
			dst[i] = 1
		} else {
			dst[i] = 0
		}
	}
}

func eqSK[D unsignedLane, T lane](dst []D, a []T, s int64, lo, hi int64) {
	dst, a = dst[lo:hi], a[lo:hi]
	a = a[:len(dst)]
	y := T(s)
	for i := range dst {
		if a[i] == y {
			dst[i] = 1
		} else {
			dst[i] = 0
		}
	}
}

func divSSK[T signedLane](dst, a []T, s int64, lo, hi int64) {
	dst, a = dst[lo:hi], a[lo:hi]
	a = a[:len(dst)]
	y := T(s)
	if y == 0 {
		for i := range dst {
			if a[i] < 0 {
				dst[i] = 1
			} else {
				dst[i] = -1
			}
		}
		return
	}
	for i := range dst {
		dst[i] = a[i] / y
	}
}

func divUSK[T unsignedLane](dst, a []T, s int64, lo, hi int64) {
	dst, a = dst[lo:hi], a[lo:hi]
	a = a[:len(dst)]
	y := T(s)
	if y == 0 {
		allOnes := ^T(0)
		for i := range dst {
			dst[i] = allOnes
		}
		return
	}
	for i := range dst {
		dst[i] = a[i] / y
	}
}
