package kernels

import (
	"fmt"
	"math/bits"

	"pimeval/internal/isa"
)

// The golden element semantics: the one per-element definition of what every
// element-wise command computes. Nothing on the production path calls these
// functions. The kernels above, the fused kernels, the bit-serial and analog
// microprograms, and whole-device runs are all tested bit for bit against
// them (see DESIGN.md, "Golden reference"). Each function truncates its
// operands to dt first, so callers may pass raw host values, and every
// result is canonical.

// RefBinary returns a op b for one element of type dt: wraparound at the
// type's width, signed or unsigned ordering per dt, 0/1 for the compares,
// and the restoring divider's rules for division.
func RefBinary(op isa.Op, dt isa.DataType, a, b int64) int64 {
	a, b = dt.Truncate(a), dt.Truncate(b)
	switch op {
	case isa.OpAdd:
		return dt.Truncate(a + b)
	case isa.OpSub:
		return dt.Truncate(a - b)
	case isa.OpMul:
		return dt.Truncate(a * b)
	case isa.OpDiv:
		return quotient(dt, a, b)
	case isa.OpAnd:
		return dt.Truncate(a & b)
	case isa.OpOr:
		return dt.Truncate(a | b)
	case isa.OpXor:
		return dt.Truncate(a ^ b)
	case isa.OpXnor:
		return dt.Truncate(^(a ^ b))
	case isa.OpMin:
		if dt.Compare(a, b) <= 0 {
			return a
		}
		return b
	case isa.OpMax:
		if dt.Compare(a, b) >= 0 {
			return a
		}
		return b
	case isa.OpLt:
		return b2i(dt.Compare(a, b) < 0)
	case isa.OpGt:
		return b2i(dt.Compare(a, b) > 0)
	case isa.OpEq:
		return b2i(a == b)
	default:
		panic(fmt.Sprintf("kernels: RefBinary(%v)", op))
	}
}

// quotient is truncated integer division as the restoring-array hardware
// computes it: division by zero yields an all-ones magnitude quotient,
// sign-adjusted for signed types. For non-zero divisors this is Go's
// truncated division, including INT_MIN / -1 wrapping back to INT_MIN.
func quotient(dt isa.DataType, a, b int64) int64 {
	mask := widthMask(dt)
	if !dt.Signed() {
		ua, ub := uint64(a)&mask, uint64(b)&mask
		if ub == 0 {
			return dt.Truncate(int64(mask))
		}
		return dt.Truncate(int64(ua / ub))
	}
	mag := func(v int64) uint64 {
		if v < 0 {
			return uint64(-v) & mask // INT_MIN maps to 2^(n-1), its magnitude
		}
		return uint64(v)
	}
	q := mask
	if ub := mag(b); ub != 0 {
		q = mag(a) / ub
	}
	if (a < 0) != (b < 0) {
		return dt.Truncate(-int64(q))
	}
	return dt.Truncate(int64(q))
}

// RefUnary returns op a for one element of type dt. The S-box ops are
// defined at 8-bit widths only.
func RefUnary(op isa.Op, dt isa.DataType, a int64) int64 {
	a = dt.Truncate(a)
	switch op {
	case isa.OpNot:
		return dt.Truncate(^a)
	case isa.OpAbs:
		if dt.Signed() && a < 0 {
			return dt.Truncate(-a)
		}
		return a
	case isa.OpPopCount:
		return int64(bits.OnesCount64(uint64(a) & widthMask(dt)))
	case isa.OpSbox:
		return dt.Truncate(int64(AESSbox[byte(a)]))
	case isa.OpSboxInv:
		return dt.Truncate(int64(AESSboxInv[byte(a)]))
	default:
		panic(fmt.Sprintf("kernels: RefUnary(%v)", op))
	}
}

// RefShift returns a shifted by amount >= 0 for one element of type dt.
// Right shifts are arithmetic for signed types and logical for unsigned
// ones; amounts at or past the width give 0, or -1 for an arithmetic right
// shift of a negative value.
func RefShift(op isa.Op, dt isa.DataType, a int64, amount int) int64 {
	a = dt.Truncate(a)
	if amount >= dt.Bits() {
		if op == isa.OpShiftR && dt.Signed() && a < 0 {
			return -1
		}
		return 0
	}
	switch {
	case op == isa.OpShiftL:
		return dt.Truncate(a << uint(amount))
	case op != isa.OpShiftR:
		panic(fmt.Sprintf("kernels: RefShift(%v)", op))
	case dt.Signed():
		return dt.Truncate(a >> uint(amount))
	default:
		return dt.Truncate(int64((uint64(a) & widthMask(dt)) >> uint(amount)))
	}
}

// widthMask has the low dt.Bits() bits set.
func widthMask(dt isa.DataType) uint64 {
	return ^uint64(0) >> (64 - uint(dt.Bits()))
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
