package kernels

import "math/bits"

// Unary and shift kernels.

func notK[T lane](dst, a []T, lo, hi int64) {
	if laneBits[T]() < 64 && long[T](hi-lo) {
		if wd, wa, h, t, ok := words2(dst[lo:hi], a[lo:hi]); ok {
			wa = wa[:len(wd)]
			for i := range wd {
				wd[i] = ^wa[i]
			}
			notK(dst, a, lo, lo+h)
			lo += t
		}
	}
	dst, a = dst[lo:hi], a[lo:hi]
	a = a[:len(dst)]
	for i := range dst {
		dst[i] = ^a[i]
	}
}

// absSK negates negative values; -MinInt wraps back to MinInt, matching the
// reference's truncated negation. The compiler already makes the branch a
// conditional move (TEST+CMOV); a sign-mask form measured slower.
func absSK[T signedLane](dst, a []T, lo, hi int64) {
	dst, a = dst[lo:hi], a[lo:hi]
	a = a[:len(dst)]
	for i := range dst {
		x := a[i]
		if x < 0 {
			x = -x
		}
		dst[i] = x
	}
}

// copyK is abs for unsigned types: the identity.
func copyK[T lane](dst, a []T, lo, hi int64) {
	copy(dst[lo:hi], a[lo:hi])
}

// popcountK counts set bits within the element width; the width mask is
// hoisted into the closure (it only matters for signed negative values,
// whose sign extension would otherwise inflate the count).
func popcountK[T lane](width int) unaryFn[T] {
	mask := ^uint64(0)
	if width < 64 {
		mask = uint64(1)<<uint(width) - 1
	}
	return func(dst, a []T, lo, hi int64) {
		dst, a = dst[lo:hi], a[lo:hi]
		a = a[:len(dst)]
		for i := range dst {
			dst[i] = T(bits.OnesCount64(uint64(a[i]) & mask))
		}
	}
}

// sboxK is the table-lookup kernel for the AES S-box commands, registered
// for the 8-bit element types only.
func sboxK[T lane](tab *[256]byte) unaryFn[T] {
	return func(dst, a []T, lo, hi int64) {
		dst, a = dst[lo:hi], a[lo:hi]
		a = a[:len(dst)]
		for i := range dst {
			dst[i] = T(tab[byte(a[i])])
		}
	}
}

// shlK/shrK rely on Go's shift semantics, which match the hardware's for
// every amount: shifts at or past the element width produce zero, except
// arithmetic right shifts of negative values, which saturate to all ones.
// Right shifts are arithmetic for signed T and logical for unsigned T.
func shlK[T lane](dst, a []T, amount int, lo, hi int64) {
	dst, a = dst[lo:hi], a[lo:hi]
	a = a[:len(dst)]
	for i := range dst {
		dst[i] = a[i] << uint(amount)
	}
}

func shrK[T lane](dst, a []T, amount int, lo, hi int64) {
	dst, a = dst[lo:hi], a[lo:hi]
	a = a[:len(dst)]
	for i := range dst {
		dst[i] = a[i] >> uint(amount)
	}
}

// AESSbox and AESSboxInv are the functional semantics of the sbox commands,
// generated from GF(2^8) math rather than hard-coded tables. They are the
// single source of truth for both the sbox kernels and RefUnary.
var AESSbox, AESSboxInv = func() ([256]byte, [256]byte) {
	mul := func(a, b byte) byte {
		var p byte
		for i := 0; i < 8; i++ {
			if b&1 != 0 {
				p ^= a
			}
			hi := a & 0x80
			a <<= 1
			if hi != 0 {
				a ^= 0x1b
			}
			b >>= 1
		}
		return p
	}
	var fwd, inv [256]byte
	for i := 0; i < 256; i++ {
		// inverse via x^254
		x := byte(i)
		sq := mul(x, x)
		p := sq
		for j := 0; j < 6; j++ {
			sq = mul(sq, sq)
			p = mul(p, sq)
		}
		rot := func(v byte, k uint) byte { return v<<k | v>>(8-k) }
		s := p ^ rot(p, 1) ^ rot(p, 2) ^ rot(p, 3) ^ rot(p, 4) ^ 0x63
		fwd[i] = s
		inv[s] = byte(i)
	}
	return fwd, inv
}()
