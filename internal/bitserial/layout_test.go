package bitserial

import (
	"math/rand"
	"testing"
)

// TestVerticalLayoutMatchesCells checks the word-parallel LoadVertical and
// ReadVertical against the cell-level SetBit/Bit definition of the layout:
// over element widths and counts around the 64-column word boundary, at a
// non-zero base, with every other cell pre-set to one and then to zero so
// that columns past the count in a partial word must keep their contents,
// and with value bits above the element width set so that they must be
// ignored.
func TestVerticalLayoutMatchesCells(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const base = 5
	for _, bits := range []int{1, 3, 8, 16, 33, 64} {
		for _, count := range []int{1, 63, 64, 65, 130} {
			for _, fill := range []bool{true, false} {
				rows := base + bits + 2
				width := (count+63)&^63 + 64 // a partial word, then an untouched one
				got, want := NewEngine(rows, width), NewEngine(rows, width)
				for r := 0; r < rows; r++ {
					for c := 0; c < width; c++ {
						got.SetBit(r, c, fill)
						want.SetBit(r, c, fill)
					}
				}
				values := make([]int64, count)
				for j := range values {
					values[j] = int64(rng.Uint64())
					for i := 0; i < bits; i++ {
						want.SetBit(base+i, j, (values[j]>>uint(i))&1 != 0)
					}
				}
				got.LoadVertical(base, bits, values)
				for r := 0; r < rows; r++ {
					for c := 0; c < width; c++ {
						if got.Bit(r, c) != want.Bit(r, c) {
							t.Fatalf("bits=%d count=%d fill=%v: LoadVertical cell (%d,%d) = %v, want %v",
								bits, count, fill, r, c, got.Bit(r, c), want.Bit(r, c))
						}
					}
				}
				read := got.ReadVertical(base, bits, count)
				for j, v := range read {
					var w int64
					for i := 0; i < bits; i++ {
						if want.Bit(base+i, j) {
							w |= int64(1) << uint(i)
						}
					}
					if v != w {
						t.Fatalf("bits=%d count=%d fill=%v: ReadVertical[%d] = %#x, want %#x", bits, count, fill, j, v, w)
					}
				}
			}
		}
	}
}
