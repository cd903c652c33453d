package kernels

// Element-wise binary kernels and their scalar-broadcast twins. Each body is
// the whole semantics of one (op, type) pair over storage of machine type T:
// T arithmetic wraps natively at the element width. Comparison ops write
// 0/1 masks into a destination of width class D, which holds the same bits
// for either signedness of that width. No loop branches on element data:
// compares store bit(cond), min and max are the builtins (CMOV).
//
// The bitwise ops run word-wise (words.go) at every width narrower than a
// word, add, sub and the scalar mul at 8 and 16 bits, and eq at 8 bits
// into an 8-bit mask. In the word steps H is the lanes' high bits: add
// sums the low bits of each lane, which cannot carry out of it, and puts
// the high bit back as x^y^carry; sub does the same with the high bits set
// in the minuend, so no lane borrows from the next.

func addK[T lane](dst, a, b []T, lo, hi int64) {
	if w := laneBits[T](); w <= 16 && long[T](hi-lo) {
		if wd, wa, wb, h, t, ok := words3(dst[lo:hi], a[lo:hi], b[lo:hi]); ok {
			wa, wb = wa[:len(wd)], wb[:len(wd)]
			hb := highs(w)
			for i := range wd {
				x, y := wa[i], wb[i]
				wd[i] = (x&^hb + y&^hb) ^ (x^y)&hb
			}
			addK(dst, a, b, lo, lo+h)
			lo += t
		}
	}
	dst, a, b = dst[lo:hi], a[lo:hi], b[lo:hi]
	a, b = a[:len(dst)], b[:len(dst)]
	for i := range dst {
		dst[i] = a[i] + b[i]
	}
}

func subK[T lane](dst, a, b []T, lo, hi int64) {
	if w := laneBits[T](); w <= 16 && long[T](hi-lo) {
		if wd, wa, wb, h, t, ok := words3(dst[lo:hi], a[lo:hi], b[lo:hi]); ok {
			wa, wb = wa[:len(wd)], wb[:len(wd)]
			hb := highs(w)
			for i := range wd {
				x, y := wa[i], wb[i]
				wd[i] = ((x | hb) - y&^hb) ^ (x^^y)&hb
			}
			subK(dst, a, b, lo, lo+h)
			lo += t
		}
	}
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
	if laneBits[T]() < 64 && long[T](hi-lo) {
		if wd, wa, wb, h, t, ok := words3(dst[lo:hi], a[lo:hi], b[lo:hi]); ok {
			wa, wb = wa[:len(wd)], wb[:len(wd)]
			for i := range wd {
				x, y := wa[i], wb[i]
				wd[i] = x & y
			}
			andK(dst, a, b, lo, lo+h)
			lo += t
		}
	}
	dst, a, b = dst[lo:hi], a[lo:hi], b[lo:hi]
	a, b = a[:len(dst)], b[:len(dst)]
	for i := range dst {
		dst[i] = a[i] & b[i]
	}
}

func orK[T lane](dst, a, b []T, lo, hi int64) {
	if laneBits[T]() < 64 && long[T](hi-lo) {
		if wd, wa, wb, h, t, ok := words3(dst[lo:hi], a[lo:hi], b[lo:hi]); ok {
			wa, wb = wa[:len(wd)], wb[:len(wd)]
			for i := range wd {
				x, y := wa[i], wb[i]
				wd[i] = x | y
			}
			orK(dst, a, b, lo, lo+h)
			lo += t
		}
	}
	dst, a, b = dst[lo:hi], a[lo:hi], b[lo:hi]
	a, b = a[:len(dst)], b[:len(dst)]
	for i := range dst {
		dst[i] = a[i] | b[i]
	}
}

func xorK[T lane](dst, a, b []T, lo, hi int64) {
	if laneBits[T]() < 64 && long[T](hi-lo) {
		if wd, wa, wb, h, t, ok := words3(dst[lo:hi], a[lo:hi], b[lo:hi]); ok {
			wa, wb = wa[:len(wd)], wb[:len(wd)]
			for i := range wd {
				x, y := wa[i], wb[i]
				wd[i] = x ^ y
			}
			xorK(dst, a, b, lo, lo+h)
			lo += t
		}
	}
	dst, a, b = dst[lo:hi], a[lo:hi], b[lo:hi]
	a, b = a[:len(dst)], b[:len(dst)]
	for i := range dst {
		dst[i] = a[i] ^ b[i]
	}
}

func xnorK[T lane](dst, a, b []T, lo, hi int64) {
	if laneBits[T]() < 64 && long[T](hi-lo) {
		if wd, wa, wb, h, t, ok := words3(dst[lo:hi], a[lo:hi], b[lo:hi]); ok {
			wa, wb = wa[:len(wd)], wb[:len(wd)]
			for i := range wd {
				x, y := wa[i], wb[i]
				wd[i] = ^(x ^ y)
			}
			xnorK(dst, a, b, lo, lo+h)
			lo += t
		}
	}
	dst, a, b = dst[lo:hi], a[lo:hi], b[lo:hi]
	a, b = a[:len(dst)], b[:len(dst)]
	for i := range dst {
		dst[i] = ^(a[i] ^ b[i])
	}
}

// minK/maxK store the value the reference's compare-and-pick stores: for
// integers, the builtin's.
func minK[T lane](dst, a, b []T, lo, hi int64) {
	dst, a, b = dst[lo:hi], a[lo:hi], b[lo:hi]
	a, b = a[:len(dst)], b[:len(dst)]
	for i := range dst {
		dst[i] = min(a[i], b[i])
	}
}

func maxK[T lane](dst, a, b []T, lo, hi int64) {
	dst, a, b = dst[lo:hi], a[lo:hi], b[lo:hi]
	a, b = a[:len(dst)], b[:len(dst)]
	for i := range dst {
		dst[i] = max(a[i], b[i])
	}
}

func ltK[D unsignedLane, T lane](dst []D, a, b []T, lo, hi int64) {
	dst, a, b = dst[lo:hi], a[lo:hi], b[lo:hi]
	a, b = a[:len(dst)], b[:len(dst)]
	for i := range dst {
		dst[i] = D(bit(a[i] < b[i]))
	}
}

func gtK[D unsignedLane, T lane](dst []D, a, b []T, lo, hi int64) {
	dst, a, b = dst[lo:hi], a[lo:hi], b[lo:hi]
	a, b = a[:len(dst)], b[:len(dst)]
	for i := range dst {
		dst[i] = D(bit(a[i] > b[i]))
	}
}

// eqK and eqSK at 8 bits into an 8-bit mask run word-wise: a lane is
// equal where the lanes' xor is a zero byte.
func eqK[D unsignedLane, T lane](dst []D, a, b []T, lo, hi int64) {
	if laneBits[T]() == 8 && laneBits[D]() == 8 && long[T](hi-lo) {
		if wd, wa, wb, h, t, ok := words3(dst[lo:hi], a[lo:hi], b[lo:hi]); ok {
			wa, wb = wa[:len(wd)], wb[:len(wd)]
			for i := range wd {
				wd[i] = zeroBytes(wa[i] ^ wb[i])
			}
			eqK(dst, a, b, lo, lo+h)
			lo += t
		}
	}
	dst, a, b = dst[lo:hi], a[lo:hi], b[lo:hi]
	a, b = a[:len(dst)], b[:len(dst)]
	for i := range dst {
		dst[i] = D(bit(a[i] == b[i]))
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
	if w := laneBits[T](); w <= 16 && long[T](hi-lo) {
		if wd, wa, h, t, ok := words2(dst[lo:hi], a[lo:hi]); ok {
			wa = wa[:len(wd)]
			hb, y := highs(w), splat(uint64(T(s)), w)
			yl, yh := y&^hb, y&hb
			for i := range wd {
				x := wa[i]
				wd[i] = (x&^hb + yl) ^ (x&hb ^ yh)
			}
			addSK(dst, a, s, lo, lo+h)
			lo += t
		}
	}
	dst, a = dst[lo:hi], a[lo:hi]
	a = a[:len(dst)]
	y := T(s)
	for i := range dst {
		dst[i] = a[i] + y
	}
}

func subSK[T lane](dst, a []T, s int64, lo, hi int64) {
	if w := laneBits[T](); w <= 16 && long[T](hi-lo) {
		if wd, wa, h, t, ok := words2(dst[lo:hi], a[lo:hi]); ok {
			wa = wa[:len(wd)]
			hb, y := highs(w), splat(uint64(T(s)), w)
			yl, yh := y&^hb, ^y&hb
			for i := range wd {
				x := wa[i]
				wd[i] = ((x | hb) - yl) ^ (x&hb ^ yh)
			}
			subSK(dst, a, s, lo, lo+h)
			lo += t
		}
	}
	dst, a = dst[lo:hi], a[lo:hi]
	a = a[:len(dst)]
	y := T(s)
	for i := range dst {
		dst[i] = a[i] - y
	}
}

// mulSK at 8 and 16 bits multiplies the even and the odd lanes apart,
// each lane widened to a double-width lane: a lane's product with the
// scalar's lane bits fits there, so none carries into the next, and its
// low b bits are the element's wrapped product at either signedness.
func mulSK[T lane](dst, a []T, s int64, lo, hi int64) {
	if w := laneBits[T](); w <= 16 && long[T](hi-lo) {
		if wd, wa, h, t, ok := words2(dst[lo:hi], a[lo:hi]); ok {
			wa = wa[:len(wd)]
			ev, y := evens(w), uint64(T(s))&(uint64(1)<<w-1)
			for i := range wd {
				x := wa[i]
				wd[i] = (x&ev*y)&ev | (x>>w&ev*y)&ev<<w
			}
			mulSK(dst, a, s, lo, lo+h)
			lo += t
		}
	}
	dst, a = dst[lo:hi], a[lo:hi]
	a = a[:len(dst)]
	y := T(s)
	for i := range dst {
		dst[i] = a[i] * y
	}
}

func andSK[T lane](dst, a []T, s int64, lo, hi int64) {
	if w := laneBits[T](); w < 64 && long[T](hi-lo) {
		if wd, wa, h, t, ok := words2(dst[lo:hi], a[lo:hi]); ok {
			wa = wa[:len(wd)]
			y := splat(uint64(T(s)), w)
			for i := range wd {
				x := wa[i]
				wd[i] = x & y
			}
			andSK(dst, a, s, lo, lo+h)
			lo += t
		}
	}
	dst, a = dst[lo:hi], a[lo:hi]
	a = a[:len(dst)]
	y := T(s)
	for i := range dst {
		dst[i] = a[i] & y
	}
}

func orSK[T lane](dst, a []T, s int64, lo, hi int64) {
	if w := laneBits[T](); w < 64 && long[T](hi-lo) {
		if wd, wa, h, t, ok := words2(dst[lo:hi], a[lo:hi]); ok {
			wa = wa[:len(wd)]
			y := splat(uint64(T(s)), w)
			for i := range wd {
				x := wa[i]
				wd[i] = x | y
			}
			orSK(dst, a, s, lo, lo+h)
			lo += t
		}
	}
	dst, a = dst[lo:hi], a[lo:hi]
	a = a[:len(dst)]
	y := T(s)
	for i := range dst {
		dst[i] = a[i] | y
	}
}

func xorSK[T lane](dst, a []T, s int64, lo, hi int64) {
	if w := laneBits[T](); w < 64 && long[T](hi-lo) {
		if wd, wa, h, t, ok := words2(dst[lo:hi], a[lo:hi]); ok {
			wa = wa[:len(wd)]
			y := splat(uint64(T(s)), w)
			for i := range wd {
				x := wa[i]
				wd[i] = x ^ y
			}
			xorSK(dst, a, s, lo, lo+h)
			lo += t
		}
	}
	dst, a = dst[lo:hi], a[lo:hi]
	a = a[:len(dst)]
	y := T(s)
	for i := range dst {
		dst[i] = a[i] ^ y
	}
}

func xnorSK[T lane](dst, a []T, s int64, lo, hi int64) {
	if w := laneBits[T](); w < 64 && long[T](hi-lo) {
		if wd, wa, h, t, ok := words2(dst[lo:hi], a[lo:hi]); ok {
			wa = wa[:len(wd)]
			y := splat(uint64(T(s)), w)
			for i := range wd {
				x := wa[i]
				wd[i] = ^(x ^ y)
			}
			xnorSK(dst, a, s, lo, lo+h)
			lo += t
		}
	}
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
		dst[i] = min(a[i], y)
	}
}

func maxSK[T lane](dst, a []T, s int64, lo, hi int64) {
	dst, a = dst[lo:hi], a[lo:hi]
	a = a[:len(dst)]
	y := T(s)
	for i := range dst {
		dst[i] = max(a[i], y)
	}
}

func ltSK[D unsignedLane, T lane](dst []D, a []T, s int64, lo, hi int64) {
	dst, a = dst[lo:hi], a[lo:hi]
	a = a[:len(dst)]
	y := T(s)
	for i := range dst {
		dst[i] = D(bit(a[i] < y))
	}
}

func gtSK[D unsignedLane, T lane](dst []D, a []T, s int64, lo, hi int64) {
	dst, a = dst[lo:hi], a[lo:hi]
	a = a[:len(dst)]
	y := T(s)
	for i := range dst {
		dst[i] = D(bit(a[i] > y))
	}
}

func eqSK[D unsignedLane, T lane](dst []D, a []T, s int64, lo, hi int64) {
	if laneBits[T]() == 8 && laneBits[D]() == 8 && long[T](hi-lo) {
		if wd, wa, h, t, ok := words2(dst[lo:hi], a[lo:hi]); ok {
			wa = wa[:len(wd)]
			y := splat(uint64(T(s)), 8)
			for i := range wd {
				wd[i] = zeroBytes(wa[i] ^ y)
			}
			eqSK(dst, a, s, lo, lo+h)
			lo += t
		}
	}
	dst, a = dst[lo:hi], a[lo:hi]
	a = a[:len(dst)]
	y := T(s)
	for i := range dst {
		dst[i] = D(bit(a[i] == y))
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
