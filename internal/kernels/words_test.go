package kernels

import (
	"fmt"
	"math/rand"
	"testing"

	"pimeval/internal/isa"
)

// Word-boundary checks for the word-at-a-time kernels (words.go). A word
// kernel splits its span into a head, aligned words and a tail, and falls
// back to the element loop for short spans and for operands at different
// alignments mod 8; every split must compute each element exactly once and
// write nothing outside the span. The lengths straddle the word (7–9), the
// wordMin threshold (31–33, in 8-bit elements), the 8-bit sum's first fold
// (1023–1025 elements) and the 16-bit sum's (131071–131073); the sums also
// run past a second 16-bit fold. The data holds the lane extremes — all
// ones, MinInt, MaxInt — whose carries, borrows and sums would leak across
// a lane boundary or overflow a late fold.

var (
	wordLengths = []int{0, 1, 7, 8, 9, 31, 32, 33, 1023, 1024, 1025}
	sumLengths  = append(append([]int(nil), wordLengths...), 131071, 131072, 131073, 262147)
)

// wordLayout places a kernel's operands: dst, a and b start sd, sa and sb
// elements into their buffers, and alias makes dst a itself. The span then
// starts lo elements in.
type wordLayout struct {
	sd, sa, sb int
	alias      bool
	lo         int
}

// wordLayouts are every lo offset 0–7 with aligned operands, and at two
// offsets each operand shifted by one element against the others, and dst
// aliasing a.
func wordLayouts() []wordLayout {
	var ls []wordLayout
	for lo := 0; lo < 8; lo++ {
		ls = append(ls, wordLayout{lo: lo})
	}
	for _, lo := range []int{0, 5} {
		ls = append(ls,
			wordLayout{sd: 1, lo: lo}, wordLayout{sa: 1, lo: lo}, wordLayout{sb: 1, lo: lo},
			wordLayout{sd: 1, sa: 1, alias: true, lo: lo})
	}
	return ls
}

// wordCase is one kernel under test: run applies it to [lo, hi) and want
// is its value for operand elements x and y.
type wordCase struct {
	name string
	run  func(dst, a, b isa.Elems, lo, hi int64)
	want func(x, y int64) int64
}

// wordPatterns returns the operand data of the check: a mix of edge values
// and randoms, then all ones, MinInt and MaxInt (for unsigned types the
// high bit alone and every bit but it), each n elements of T.
func wordPatterns[T isa.Lane](dt isa.DataType, n int, seed int64) map[string][]T {
	top := int64(1) << (dt.Bits() - 1)
	edges := []int64{0, 1, -1, 2, -2, top, top - 1, top + 1, top - 2, 0x55, 0xAA}
	rng := rand.New(rand.NewSource(seed))
	mix := make([]T, n)
	for i := range mix {
		if v := rng.Int63(); v&1 == 0 {
			mix[i] = T(edges[int(v>>1)%len(edges)])
		} else {
			mix[i] = T(v >> 1)
		}
	}
	pats := map[string][]T{"mix": mix}
	for name, v := range map[string]int64{"ones": -1, "min": top, "max": top - 1} {
		p := make([]T, n)
		for i := range p {
			p[i] = T(v)
		}
		pats[name] = p
	}
	return pats
}

// TestKernelsWordBoundaries checks the word-wise and branch-free kernels of
// every type — the element-wise ops in binary and scalar form, not,
// select, fill, sum and the segmented sum — against the Ref* semantics and
// plain int64 sums, over every length, layout and data pattern above,
// with a sentinel in every destination element outside the span.
func TestKernelsWordBoundaries(t *testing.T) {
	wordBoundaries[int8](t)
	wordBoundaries[int16](t)
	wordBoundaries[int32](t)
	wordBoundaries[int64](t)
	wordBoundaries[uint8](t)
	wordBoundaries[uint16](t)
	wordBoundaries[uint32](t)
	wordBoundaries[uint64](t)
}

func wordBoundaries[T isa.Lane](t *testing.T) {
	dt := isa.Slice[T](nil).Type()
	k := On(dt)
	var cases []wordCase
	for _, op := range []isa.Op{
		isa.OpAdd, isa.OpSub, isa.OpMul, isa.OpAnd, isa.OpOr, isa.OpXor, isa.OpXnor,
		isa.OpMin, isa.OpMax, isa.OpLt, isa.OpGt, isa.OpEq,
	} {
		cases = append(cases, wordCase{op.String(), k.Binary(op, dt),
			func(x, y int64) int64 { return RefBinary(op, dt, x, y) }})
		for _, s := range []int64{dt.Truncate(-1), dt.Truncate(0x7B5B_3B1B_7B5B_3B1B)} {
			ks := k.Scalar(op, dt)
			cases = append(cases, wordCase{fmt.Sprintf("%v scalar %d", op, s),
				func(dst, a, _ isa.Elems, lo, hi int64) { ks(dst, a, s, lo, hi) },
				func(x, _ int64) int64 { return RefBinary(op, dt, x, s) }})
		}
	}
	not := k.Unary(isa.OpNot)
	sel := k.Select(dt)
	cases = append(cases,
		wordCase{"not", func(dst, a, _ isa.Elems, lo, hi int64) { not(dst, a, lo, hi) },
			func(x, _ int64) int64 { return RefUnary(isa.OpNot, dt, x) }},
		// The condition is a itself, so zeros pick from b.
		wordCase{"select", func(dst, a, b isa.Elems, lo, hi int64) { sel(dst, a, a, b, lo, hi) },
			func(x, y int64) int64 {
				if x != 0 {
					return x
				}
				return y
			}})
	for _, v := range []int64{dt.Truncate(-1), dt.Truncate(1 << (dt.Bits() - 1)), dt.Truncate(0x0102_0304_0506_0708)} {
		cases = append(cases, wordCase{fmt.Sprintf("fill %d", v),
			func(dst, _, _ isa.Elems, lo, hi int64) { k.Fill(dst, v, lo, hi) },
			func(int64, int64) int64 { return v }})
	}

	maxN := sumLengths[len(sumLengths)-1] + 16
	as, bs := wordPatterns[T](dt, maxN, 3), wordPatterns[T](dt, maxN, 4)
	dbuf := make([]T, wordLengths[len(wordLengths)-1]+16)
	before := make([]T, len(dbuf))
	sentinelBits := int64(0x5A5A_5A5A_5A5A_5A5A)
	sentinel := T(sentinelBits)
	for pat, A := range as {
		B := bs[pat]
		for _, c := range cases {
			for _, n := range wordLengths {
				for _, l := range wordLayouts() {
					D := dbuf[:n+16]
					for i := range D {
						D[i] = sentinel
					}
					a, b, dst := A[l.sa:], B[l.sb:], D[l.sd:]
					if l.alias {
						copy(dst, a[:n+8])
						a = dst
					}
					copy(before, D)
					lo, hi := l.lo, l.lo+n
					c.run(isa.Slice[T](dst), isa.Slice[T](a), isa.Slice[T](b), int64(lo), int64(hi))
					for i, got := range D {
						want := before[i]
						if j := i - l.sd; j >= lo && j < hi {
							x := int64(before[i])
							if !l.alias {
								x = int64(a[j])
							}
							want = T(c.want(x, int64(b[j])))
						}
						if got != want {
							t.Fatalf("%v %s on %s data, n %d, %+v: element %d = %d, want %d",
								dt, c.name, pat, n, l, i-l.sd, got, want)
						}
					}
				}
			}
		}

		for _, n := range sumLengths {
			for lo := 0; lo < 8; lo++ {
				var want int64
				for _, v := range A[lo : lo+n] {
					want += int64(v)
				}
				if got := k.Sum(isa.Slice[T](A), int64(lo), int64(lo+n)); got != want {
					t.Fatalf("%v sum of %s data [%d, %d) = %d, want %d", dt, pat, lo, lo+n, got, want)
				}
			}
		}
		const segLen = 40
		for _, n := range wordLengths {
			for lo := 0; lo < 8; lo++ {
				hi := lo + n
				if n == 0 {
					continue
				}
				seg0 := int64(lo / segLen)
				got := make([]int64, (hi-1)/segLen-int(seg0)+1)
				want := make([]int64, len(got))
				k.SumSeg(isa.Slice[T](A), int64(lo), int64(hi), segLen, seg0, got)
				for i := lo; i < hi; i++ {
					want[int64(i/segLen)-seg0] += int64(A[i])
				}
				for s := range got {
					if got[s] != want[s] {
						t.Fatalf("%v segmented sum of %s data [%d, %d): segment %d = %d, want %d",
							dt, pat, lo, hi, s, got[s], want[s])
					}
				}
			}
		}
	}
}
