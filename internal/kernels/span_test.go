package kernels

import (
	"fmt"
	"slices"
	"testing"

	"pimeval/internal/isa"
)

// Span-boundary checks. The device shards every object into spans and calls
// each kernel once per span, so a kernel must write exactly dst[lo:hi] with
// lo > 0 and hi < len(dst), reading its inputs at the same indices. Each
// kernel below runs on an interior span of a buffer whose other elements
// hold a sentinel, then again with dst aliasing a, and every element is
// checked: inside the span against the oracle, outside it unchanged.

const (
	spanN  = 2*fusedBlock + 90 // the span crosses fusedBlock boundaries
	spanLo = 37
	spanHi = spanN - 41
	// spanSentinel is non-canonical for every type narrower than 64 bits,
	// so no kernel output can equal it by accident.
	spanSentinel = 0x7A5A_5A5A_5A5A_5A5A
)

// spanCase is one kernel under test: run applies it to [lo, hi) and want
// gives the oracle's value for element i of the original operands. A
// storage kernel runs through the span harness with its destination
// stored as out, so elements outside the span read back truncated to out;
// the carrier faces leave out invalid. noAlias skips the in-place run for
// a destination whose type differs from a's.
type spanCase struct {
	name    string
	run     func(dst, a, b []int64, lo, hi int64)
	want    func(i int) int64
	out     isa.DataType
	noAlias bool
}

// checkSpan runs c on the interior span, first into a sentinel-filled dst,
// then in place over a copy of a.
func checkSpan(t *testing.T, c spanCase, a, b []int64) {
	t.Helper()
	check := func(mode string, dst, outside []int64) {
		t.Helper()
		for i := range dst {
			want := outside[i]
			if c.out.Valid() {
				want = c.out.Truncate(want)
			}
			if i >= spanLo && i < spanHi {
				want = c.want(i)
			}
			if dst[i] != want {
				t.Fatalf("%s (%s): element %d = %d, want %d (span [%d,%d))",
					c.name, mode, i, dst[i], want, spanLo, spanHi)
			}
		}
	}
	sentinels := make([]int64, spanN)
	for i := range sentinels {
		sentinels[i] = spanSentinel
	}
	dst := append([]int64(nil), sentinels...)
	c.run(dst, a, b, spanLo, spanHi)
	check("separate dst", dst, sentinels)

	if c.noAlias {
		return
	}
	orig := append([]int64(nil), a...)
	alias := append([]int64(nil), a...)
	c.run(alias, alias, b, spanLo, spanHi)
	check("dst aliases a", alias, orig)
}

// TestKernelsSpanBoundaries checks every registered Binary, Scalar, Unary
// and Shift kernel, every fused constructor over the optimizer's stage ops,
// Select and Fill, over all 8 types, through the span harness. The
// compares also write every other destination type, and select also reads
// a condition of every other type. The carrier faces (Binary, Unary,
// Shift, Select) must leave the carriers outside the span untouched. The
// sums must match per-element accumulation over the span.
func TestKernelsSpanBoundaries(t *testing.T) {
	for _, dt := range allTypes {
		a := edgeVec(dt, spanN, 5)
		b := edgeVec(dt, spanN, 7)
		s1, s2 := dt.Truncate(3), dt.Truncate(-5)
		var cases []spanCase
		// out is the destination storage type of the cases add appends.
		out := dt
		add := func(name string, run func(dst, a, b []int64, lo, hi int64), want func(i int) int64) {
			cases = append(cases, spanCase{name: name + "." + dt.String(), run: run, want: want, out: out})
		}
		for op := isa.Op(0); int(op) < isa.NumOps; op++ {
			if k := binary(op, dt); k != nil {
				add(op.String(), k, func(i int) int64 { return RefBinary(op, dt, a[i], b[i]) })
			}
			if k := scalar(op, dt); k != nil {
				for _, s := range []int64{s1, s2, 0} {
					add(fmt.Sprintf("%v scalar %d", op, s),
						func(dst, a, _ []int64, lo, hi int64) { k(dst, a, s, lo, hi) },
						func(i int) int64 { return RefBinary(op, dt, a[i], s) })
				}
			}
			if k := unary(op, dt); k != nil {
				add(op.String(),
					func(dst, a, _ []int64, lo, hi int64) { k(dst, a, lo, hi) },
					func(i int) int64 { return RefUnary(op, dt, a[i]) })
			}
			if k := shift(op, dt); k != nil {
				w := dt.Bits()
				for _, amount := range []int{0, 1, w - 1, w, w + 3} {
					add(fmt.Sprintf("%v by %d", op, amount),
						func(dst, a, _ []int64, lo, hi int64) { k(dst, a, amount, lo, hi) },
						func(i int) int64 { return RefShift(op, dt, a[i], amount) })
				}
			}
		}
		for _, op1 := range fusedBinaryOps {
			for _, op2 := range fusedUnaryStageOps {
				if k := fusedBinaryUnary(op1, op2, dt); k != nil {
					want := sequentialGolden(op1, op2, dt, true, 0, a, b, s1, s2)
					add(fmt.Sprintf("fused %v+%v binary-unary", op1, op2), k,
						func(i int) int64 { return want[i] })
				}
				if k := fusedScalarUnary(op1, op2, dt, s1); k != nil {
					want := sequentialGolden(op1, op2, dt, false, 0, a, b, s1, s2)
					add(fmt.Sprintf("fused %v+%v scalar-unary", op1, op2),
						func(dst, a, _ []int64, lo, hi int64) { k(dst, a, lo, hi) },
						func(i int) int64 { return want[i] })
				}
			}
			for _, op2 := range fusedBinaryOps {
				if k := fusedBinaryScalar(op1, op2, dt, s2); k != nil {
					want := sequentialGolden(op1, op2, dt, true, 1, a, b, s1, s2)
					add(fmt.Sprintf("fused %v+%v binary-scalar", op1, op2), k,
						func(i int) int64 { return want[i] })
				}
				if k := fusedScalarBinary(op1, op2, dt, s1); k != nil {
					want := sequentialGolden(op1, op2, dt, false, 2, a, b, s1, s2)
					add(fmt.Sprintf("fused %v+%v scalar-binary", op1, op2), k,
						func(i int) int64 { return want[i] })
				}
				if k := fusedScalarScalar(op1, op2, dt, s1, s2); k != nil {
					want := sequentialGolden(op1, op2, dt, false, 1, a, b, s1, s2)
					add(fmt.Sprintf("fused %v+%v scalar-scalar", op1, op2),
						func(dst, a, _ []int64, lo, hi int64) { k(dst, a, lo, hi) },
						func(i int) int64 { return want[i] })
				}
			}
		}
		// Select takes its condition from a, so the aliased run writes the
		// condition it reads, as a select into its own condition object does.
		sel := make([]int64, spanN)
		for i := range sel {
			sel[i] = s2
		}
		selWant := func(cond isa.DataType) func(i int) int64 {
			return func(i int) int64 {
				if cond.Truncate(a[i]) != 0 {
					return b[i]
				}
				return s2
			}
		}
		// The carrier faces write dst[lo:hi] of the carriers themselves.
		out = isa.DataType(-1)
		add("select",
			func(dst, a, b []int64, lo, hi int64) { Select(dst, a, b, sel, lo, hi) },
			selWant(dt))
		for op := isa.Op(0); int(op) < isa.NumOps; op++ {
			if k := Binary(op, dt); k != nil {
				add("carrier "+op.String(), k, func(i int) int64 { return RefBinary(op, dt, a[i], b[i]) })
			}
			if k := Unary(op, dt); k != nil {
				add("carrier "+op.String(),
					func(dst, a, _ []int64, lo, hi int64) { k(dst, a, lo, hi) },
					func(i int) int64 { return RefUnary(op, dt, a[i]) })
			}
			if k := Shift(op, dt); k != nil {
				amount := dt.Bits() - 1
				add(fmt.Sprintf("carrier %v by %d", op, amount),
					func(dst, a, _ []int64, lo, hi int64) { k(dst, a, amount, lo, hi) },
					func(i int) int64 { return RefShift(op, dt, a[i], amount) })
			}
		}
		out = dt
		add("fill",
			func(dst, _, _ []int64, lo, hi int64) {
				ed := stored(dt, dst)
				On(dt).Fill(ed, s1, lo, hi)
				isa.LoadInts(ed, dst, 0)
			},
			func(int) int64 { return s1 })
		// Compares into, and selects on, every other type.
		for _, other := range allTypes {
			for _, op := range []isa.Op{isa.OpLt, isa.OpGt, isa.OpEq} {
				k := asBinary(On(dt).Binary(op, other), dt, other)
				cases = append(cases, spanCase{
					name: fmt.Sprintf("%v.%v into %v", op, dt, other), run: k,
					want: func(i int) int64 { return RefBinary(op, dt, a[i], b[i]) },
					out:  other, noAlias: other != dt,
				})
				ks := asScalar(On(dt).Scalar(op, other), dt, other)
				cases = append(cases, spanCase{
					name: fmt.Sprintf("%v.%v scalar into %v", op, dt, other),
					run:  func(dst, a, _ []int64, lo, hi int64) { ks(dst, a, s2, lo, hi) },
					want: func(i int) int64 { return RefBinary(op, dt, a[i], s2) },
					out:  other, noAlias: other != dt,
				})
			}
			k := asSelect(On(dt).Select(other), other, dt)
			cases = append(cases, spanCase{
				name: fmt.Sprintf("select.%v on %v", dt, other),
				run:  func(dst, a, b []int64, lo, hi int64) { k(dst, a, b, sel, lo, hi) },
				want: selWant(other), out: dt, noAlias: other != dt,
			})
		}

		for _, c := range cases {
			checkSpan(t, c, a, b)
		}

		ea := stored(dt, a)
		const segLen = 100
		seg0 := int64(spanLo / segLen)
		var sum int64
		segs := make([]int64, (spanHi-1)/segLen-seg0+1)
		sumSegRef(a, spanLo, spanHi, segLen, seg0, segs)
		for _, v := range a[spanLo:spanHi] {
			sum += v
		}
		if got := On(dt).Sum(ea, spanLo, spanHi); got != sum {
			t.Errorf("sum.%v = %d, per-element %d", dt, got, sum)
		}
		got := make([]int64, len(segs))
		On(dt).SumSeg(ea, spanLo, spanHi, segLen, seg0, got)
		if !slices.Equal(got, segs) {
			t.Errorf("sum.seg.%v = %v, per-element %v", dt, got, segs)
		}
	}
}
