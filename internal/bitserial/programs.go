package bitserial

import (
	"fmt"

	"pimeval/internal/isa"
)

// Operand-region layout convention used by every builder. For an n-bit
// element type, bit plane i of an operand sits at row base+i:
//
//	binary ops (add/sub/mul/and/or/xor/xnor/min/max/lt/gt/eq):
//	    A rows [0,n)   B rows [n,2n)   D rows [2n,3n)      Rows = 3n
//	unary ops (not/abs/shift/popcount) and broadcast-like ops:
//	    A rows [0,n)   D rows [n,2n)                       Rows = 2n
//	select:
//	    M rows [0,n)   A rows [n,2n)   B rows [2n,3n)   D rows [3n,4n)
//
// The mask consumed by select and produced by the comparisons carries its
// truth value in bit plane 0; the remaining planes are written zero.

type builder struct {
	p Program
}

func (b *builder) read(row int)      { b.p.Ops = append(b.p.Ops, MicroOp{Kind: KRead, Row: int32(row)}) }
func (b *builder) write(row int)     { b.p.Ops = append(b.p.Ops, MicroOp{Kind: KWrite, Row: int32(row)}) }
func (b *builder) set(d Reg, v bool) { b.p.Ops = append(b.p.Ops, MicroOp{Kind: KSet, Dst: d, Val: v}) }
func (b *builder) move(d, a Reg)     { b.p.Ops = append(b.p.Ops, MicroOp{Kind: KMove, Dst: d, A: a}) }
func (b *builder) and(d, a, x Reg) {
	b.p.Ops = append(b.p.Ops, MicroOp{Kind: KAnd, Dst: d, A: a, B: x})
}
func (b *builder) xnor(d, a, x Reg) {
	b.p.Ops = append(b.p.Ops, MicroOp{Kind: KXnor, Dst: d, A: a, B: x})
}
func (b *builder) sel(d, c, a, x Reg) {
	b.p.Ops = append(b.p.Ops, MicroOp{Kind: KSel, Dst: d, C: c, A: a, B: x})
}

// done finishes the program, storing its ops at exact capacity: compiled
// programs live in the process-wide caches for good.
func (b *builder) done(name string, rows, dstBase int) *Program {
	b.p.Ops = append(make([]MicroOp, 0, len(b.p.Ops)), b.p.Ops...)
	b.p.Name = name
	b.p.Rows = rows
	b.p.DstBase = dstBase
	return &b.p
}

// writeMaskResult writes R1's truth value to dest bit plane 0 and zeroes the
// remaining planes, producing a full-width 0/1 mask element.
func (b *builder) writeMaskResult(dbase, n int) {
	b.move(RSA, R1)
	b.write(dbase)
	b.set(RSA, false)
	for i := 1; i < n; i++ {
		b.write(dbase + i)
	}
}

// Build compiles the microprogram for op over element type dt. imm carries
// the immediate for shift (amount) and broadcast (value); it is ignored by
// other ops. Unsupported ops (reductions, copies) return an error: their
// cost is modeled directly by the architecture model, not by a microprogram.
func Build(op isa.Op, dt isa.DataType, imm int64) (*Program, error) {
	n := dt.Bits()
	switch op {
	case isa.OpAnd, isa.OpOr, isa.OpXor, isa.OpXnor:
		return buildLogic(op, n), nil
	case isa.OpNot:
		return buildNot(n), nil
	case isa.OpAdd:
		return buildAddSub(n, false), nil
	case isa.OpSub:
		return buildAddSub(n, true), nil
	case isa.OpMul:
		return buildMul(n), nil
	case isa.OpDiv:
		return buildDiv(n, dt.Signed()), nil
	case isa.OpEq:
		return buildEq(n), nil
	case isa.OpLt:
		return buildLess(n, dt.Signed(), false), nil
	case isa.OpGt:
		return buildLess(n, dt.Signed(), true), nil
	case isa.OpMin:
		return buildMinMax(n, dt.Signed(), true), nil
	case isa.OpMax:
		return buildMinMax(n, dt.Signed(), false), nil
	case isa.OpAbs:
		return buildAbs(n, dt.Signed()), nil
	case isa.OpShiftL:
		return buildShift(n, int(imm), true, false), nil
	case isa.OpShiftR:
		return buildShift(n, int(imm), false, dt.Signed()), nil
	case isa.OpPopCount:
		return buildPopCount(n), nil
	case isa.OpSelect:
		return buildSelect(n), nil
	case isa.OpBroadcast:
		return buildBroadcast(n, imm), nil
	default:
		return nil, fmt.Errorf("bitserial: op %v has no microprogram", op)
	}
}

func buildLogic(op isa.Op, n int) *Program {
	var b builder
	for i := 0; i < n; i++ {
		b.read(i)
		b.move(R2, RSA)
		b.read(n + i)
		switch op {
		case isa.OpAnd:
			b.and(RSA, R2, RSA)
		case isa.OpXnor:
			b.xnor(RSA, R2, RSA)
		case isa.OpXor:
			b.xnor(R3, R2, RSA)
			b.set(RSA, false)
			b.xnor(RSA, R3, RSA)
		case isa.OpOr:
			// a | b == a ? 1 : b
			b.move(R3, RSA)
			b.set(RSA, true)
			b.sel(RSA, R2, RSA, R3)
		}
		b.write(2*n + i)
	}
	return b.done(op.String(), 3*n, 2*n)
}

func buildNot(n int) *Program {
	var b builder
	for i := 0; i < n; i++ {
		b.read(i)
		b.move(R2, RSA)
		b.set(RSA, false)
		b.xnor(RSA, R2, RSA)
		b.write(n + i)
	}
	return b.done("not", 2*n, n)
}

// buildAddSub emits a ripple-carry adder: per bit,
//
//	R4 = ~(a^b); sum = (a^b)^c = XNOR(R4, c); carry' = R4 ? a&b : c.
//
// Subtraction inverts b on the fly and seeds the carry with 1.
func buildAddSub(n int, sub bool) *Program {
	var b builder
	b.set(R1, sub) // carry-in: 0 for add, 1 for sub (a + ~b + 1)
	for i := 0; i < n; i++ {
		b.read(i)
		b.move(R2, RSA) // a
		b.read(n + i)   // RSA = b
		if sub {
			b.move(R3, RSA)
			b.set(RSA, false)
			b.xnor(R3, R3, RSA) // R3 = ~b
			b.xnor(R4, R2, R3)  // ~(a^~b)
			b.and(R3, R2, R3)   // a & ~b
		} else {
			b.xnor(R4, R2, RSA) // ~(a^b)
			b.and(R3, R2, RSA)  // a & b
		}
		b.xnor(R2, R4, R1)    // sum = (a^b') ^ c
		b.sel(R1, R4, R3, R1) // carry' = (a==b') ? a&b' : c
		b.move(RSA, R2)
		b.write(2*n + i)
	}
	return b.done(map[bool]string{false: "add", true: "sub"}[sub], 3*n, 2*n)
}

// buildMul emits a schoolbook shift-add multiplier over a full 2n-bit
// accumulator (the DRISA-style formulation: no early termination, every
// partial product ripples through the full element width). The low half of
// the accumulator is the destination [2n,3n); the high half lives in
// scratch planes [3n,4n). This full-width inner loop is what makes
// bit-serial multiplication quadratic and lets Fulcrum win multiplies in
// the paper's Figure 6.
func buildMul(n int) *Program {
	var b builder
	b.set(RSA, false)
	for i := 0; i < 2*n; i++ {
		b.write(2*n + i)
	}
	for j := 0; j < n; j++ {
		b.read(n + j) // multiplier bit b_j
		b.move(R1, RSA)
		b.set(R2, false) // carry for this partial-product addition
		for i := 0; i < n; i++ {
			b.read(i)
			b.move(R3, RSA)
			b.and(R3, R3, R1)   // partial = a_i & b_j
			b.read(2*n + i + j) // RSA = acc bit
			b.xnor(R4, R3, RSA) // ~(p^acc)
			b.and(R3, R3, RSA)  // p & acc
			b.xnor(RSA, R4, R2) // sum = (p^acc)^c
			b.sel(R2, R4, R3, R2)
			b.write(2*n + i + j)
		}
		// Ripple the final carry into the next accumulator plane.
		if j+n < 2*n {
			b.read(2*n + j + n)
			b.move(R3, RSA)
			b.xnor(R4, R3, R2) // ~(acc^c)
			b.and(R2, R3, R2)  // carry'
			b.set(RSA, false)
			b.xnor(RSA, R4, RSA) // sum = acc^c
			b.write(2*n + j + n)
		}
	}
	return b.done("mul", 4*n, 2*n)
}

// buildDiv emits a restoring divider: n iterations, each shifting the
// partial remainder left by one plane, subtracting the divisor, and
// conditionally restoring — Θ(n²) row operations, the most expensive
// bit-serial microprogram in the library. Division by zero follows the
// restoring-array hardware: an all-ones magnitude quotient, sign-adjusted
// for signed types (RISC-V-style for non-negative dividends).
//
// Region layout: A[0,n) B[n,2n) D[2n,3n) R[3n,4n) T[4n,5n); the signed
// variant adds |A| at [5n,6n), |B| at [6n,7n), and the sign plane at 7n.
func buildDiv(n int, signed bool) *Program {
	var b builder
	if !signed {
		divCore(&b, n, 0, n, 2*n, 3*n, 4*n)
		return b.done("div", 5*n, 2*n)
	}
	sa, sb, sg := 5*n, 6*n, 7*n
	// sign = signA ^ signB, latched into its plane before the core runs.
	b.read(n - 1)
	b.move(R2, RSA)
	b.read(2*n - 1)
	b.xnor(R3, R2, RSA)
	b.set(RSA, false)
	b.xnor(RSA, R3, RSA)
	b.write(sg)
	// |A| -> sa, |B| -> sb (the conditional-negate body of buildAbs).
	for _, m := range []struct{ src, dst int }{{0, sa}, {n, sb}} {
		b.read(m.src + n - 1)
		b.move(R1, RSA) // sign
		b.set(R2, true) // +1 carry
		for i := 0; i < n; i++ {
			b.read(m.src + i)
			b.move(R3, RSA)
			b.set(RSA, false)
			b.xnor(R4, R3, RSA)     // ~a
			b.xnor(RSA, R3, R2)     // ~a ^ c
			b.and(R2, R4, R2)       // carry'
			b.sel(RSA, R1, RSA, R3) // sign ? negated : original
			b.write(m.dst + i)
		}
	}
	divCore(&b, n, sa, sb, 2*n, 3*n, 4*n)
	// Conditionally negate the quotient by the latched sign.
	b.read(sg)
	b.move(R1, RSA)
	b.set(R2, true)
	for i := 0; i < n; i++ {
		b.read(2*n + i)
		b.move(R3, RSA)
		b.set(RSA, false)
		b.xnor(R4, R3, RSA)
		b.xnor(RSA, R3, R2)
		b.and(R2, R4, R2)
		b.sel(RSA, R1, RSA, R3)
		b.write(2*n + i)
	}
	return b.done("div", 7*n+1, 2*n)
}

// divCore emits the unsigned restoring-division loop over the given plane
// bases: quotient planes at dBase, remainder at rBase, trial difference at
// tBase.
func divCore(b *builder, n, aBase, bBase, dBase, rBase, tBase int) {
	b.set(RSA, false)
	for k := 0; k < n; k++ {
		b.write(rBase + k)
	}
	for i := n - 1; i >= 0; i-- {
		// R = (R << 1) | a_i.
		for k := n - 1; k >= 1; k-- {
			b.read(rBase + k - 1)
			b.write(rBase + k)
		}
		b.read(aBase + i)
		b.write(rBase)
		// T = R - B; final carry in R1 is the no-borrow flag (R >= B).
		b.set(R1, true)
		for k := 0; k < n; k++ {
			b.read(rBase + k)
			b.move(R2, RSA)
			b.read(bBase + k)
			b.move(R3, RSA)
			b.set(RSA, false)
			b.xnor(R3, R3, RSA)   // ~b
			b.xnor(R4, R2, R3)    // ~(r ^ ~b)
			b.and(R3, R2, R3)     // r & ~b
			b.xnor(R2, R4, R1)    // difference bit
			b.sel(R1, R4, R3, R1) // borrow chain
			b.move(RSA, R2)
			b.write(tBase + k)
		}
		// q_i = no-borrow; R = no-borrow ? T : R.
		b.move(RSA, R1)
		b.write(dBase + i)
		for k := 0; k < n; k++ {
			b.read(tBase + k)
			b.move(R2, RSA)
			b.read(rBase + k)
			b.sel(RSA, R1, R2, RSA)
			b.write(rBase + k)
		}
	}
}

func buildEq(n int) *Program {
	var b builder
	b.set(R1, true)
	for i := 0; i < n; i++ {
		b.read(i)
		b.move(R2, RSA)
		b.read(n + i)
		b.xnor(R3, R2, RSA)
		b.and(R1, R1, R3)
	}
	b.writeMaskResult(2*n, n)
	return b.done("eq", 3*n, 2*n)
}

// buildLess emits an MSB-first comparator. R1 accumulates the verdict, R2
// marks "already decided". For signed types the sign plane picks the operand
// with the set sign bit as the smaller one.
func buildLess(n int, signed, swap bool) *Program {
	var b builder
	abase, bbase := 0, n
	if swap { // gt(a,b) == lt(b,a)
		abase, bbase = n, 0
	}
	b.set(R1, false) // lt
	b.set(R2, false) // decided
	for i := n - 1; i >= 0; i-- {
		b.read(abase + i)
		b.move(R3, RSA) // a bit
		b.read(bbase + i)
		b.xnor(R4, R3, RSA) // equal-at-this-bit
		if signed && i == n-1 {
			// differing sign bits: the negative operand (a=1) is smaller.
			b.sel(R3, R4, R1, R3)
		} else {
			// differing magnitude bits: a=0,b=1 means a<b, so candidate = b.
			b.sel(R3, R4, R1, RSA)
		}
		b.sel(R1, R2, R1, R3) // keep verdict once decided
		b.set(RSA, true)
		b.sel(R2, R4, R2, RSA) // decided |= differ
	}
	b.writeMaskResult(2*n, n)
	name := "lt"
	if swap {
		name = "gt"
	}
	return b.done(name, 3*n, 2*n)
}

// buildMinMax computes the lt mask then muxes the operands plane by plane.
func buildMinMax(n int, signed, min bool) *Program {
	lt := buildLess(n, signed, false)
	var b builder
	// Reuse the comparator body but keep the verdict in R1 instead of
	// writing the mask out: strip the trailing mask-writing ops
	// (move+write+set+(n-1) writes).
	body := lt.Ops[:len(lt.Ops)-(3+n-1)]
	b.p.Ops = append(b.p.Ops, body...)
	for i := 0; i < n; i++ {
		b.read(i)
		b.move(R2, RSA)
		b.read(n + i)
		if min {
			b.sel(RSA, R1, R2, RSA) // lt ? a : b
		} else {
			b.sel(RSA, R1, RSA, R2) // lt ? b : a
		}
		b.write(2*n + i)
	}
	name := "max"
	if min {
		name = "min"
	}
	return b.done(name, 3*n, 2*n)
}

// buildAbs negates two's-complement negative elements:
// dest = sign ? (~a + 1) : a, exploiting ~a ^ c == XNOR(a, c).
func buildAbs(n int, signed bool) *Program {
	var b builder
	if !signed {
		for i := 0; i < n; i++ {
			b.read(i)
			b.write(n + i)
		}
		return b.done("abs", 2*n, n)
	}
	b.read(n - 1)
	b.move(R1, RSA) // sign
	b.set(R2, true) // carry for +1
	for i := 0; i < n; i++ {
		b.read(i)
		b.move(R3, RSA) // a
		b.set(RSA, false)
		b.xnor(R4, R3, RSA) // ~a
		b.xnor(RSA, R3, R2) // neg sum = ~a ^ c == ~(a ^ c)
		b.and(R2, R4, R2)   // carry' = ~a & c
		b.sel(RSA, R1, RSA, R3)
		b.write(n + i)
	}
	return b.done("abs", 2*n, n)
}

// buildShift moves bit planes; vacated planes fill with zero, or with the
// sign plane for arithmetic right shifts.
func buildShift(n, amount int, left, arith bool) *Program {
	var b builder
	if amount < 0 {
		amount = 0
	}
	if amount > n {
		amount = n
	}
	if left {
		for i := n - 1; i >= amount; i-- {
			b.read(i - amount)
			b.write(n + i)
		}
		b.set(RSA, false)
		for i := 0; i < amount; i++ {
			b.write(n + i)
		}
		return b.done("shift.l", 2*n, n)
	}
	for i := 0; i+amount < n; i++ {
		b.read(i + amount)
		b.write(n + i)
	}
	if arith {
		b.read(n - 1)
	} else {
		b.set(RSA, false)
	}
	for i := n - amount; i < n; i++ {
		b.write(n + i)
	}
	return b.done("shift.r", 2*n, n)
}

// buildPopCount ripple-increments a counter in the destination planes once
// per set source bit: log-linear in the element width, as the paper states.
func buildPopCount(n int) *Program {
	cw := 1
	for (1 << cw) < n+1 {
		cw++
	}
	var b builder
	b.set(RSA, false)
	for i := 0; i < n; i++ {
		b.write(n + i)
	}
	for i := 0; i < n; i++ {
		b.read(i)
		b.move(R1, RSA) // carry-in = source bit
		for k := 0; k < cw; k++ {
			b.read(n + k)
			b.and(R4, RSA, R1)  // carry'
			b.xnor(R2, RSA, R1) // ~(c ^ x)
			b.set(RSA, false)
			b.xnor(RSA, R2, RSA) // sum
			b.write(n + k)
			b.move(R1, R4)
		}
	}
	return b.done("popcount", 2*n, n)
}

func buildSelect(n int) *Program {
	var b builder
	b.read(0) // mask truth plane
	b.move(R1, RSA)
	for i := 0; i < n; i++ {
		b.read(n + i)
		b.move(R2, RSA)
		b.read(2*n + i)
		b.sel(RSA, R1, R2, RSA)
		b.write(3*n + i)
	}
	return b.done("select", 4*n, 3*n)
}

func buildBroadcast(n int, v int64) *Program {
	var b builder
	for i := 0; i < n; i++ {
		b.set(RSA, (v>>uint(i))&1 != 0)
		b.write(i)
	}
	return b.done("broadcast", n, 0)
}
