package bitserial

import (
	"fmt"

	"pimeval/internal/par"
)

// BatchWidth is the lane count of one interpreter batch: the row-buffer
// width of the paper's subarray (8192 columns), i.e. the number of elements
// one microprogram broadcast processes per subarray.
const BatchWidth = 8192

// EvalElements interprets program p functionally over n-element operand
// vectors, splitting the lanes into BatchWidth-wide batches dispatched
// across at most `workers` goroutines — the cross-check path the functional
// simulator and its differential tests use to tie word-level execution to
// the gate-accurate interpreter at scale.
//
// operands[k] holds the k-th operand's elements (already truncated to
// `bits` width), laid out per the builder convention in programs.go:
// operand k occupies bit planes [k*bits, (k+1)*bits). Programs that take no
// memory operands (broadcast) pass an empty operands slice. The returned
// slice holds the destination planes [DstBase, DstBase+bits) zero-extended
// into int64 carriers, exactly as Engine.ReadVertical produces them.
//
// Each batch runs on its own Engine and writes a disjoint range of the
// output, so results are bit-identical for every worker count.
func EvalElements(p *Program, bits, n int, operands [][]int64, workers int) ([]int64, error) {
	if bits <= 0 || bits > 64 {
		return nil, fmt.Errorf("bitserial: element width %d", bits)
	}
	if n <= 0 {
		return nil, fmt.Errorf("bitserial: element count %d", n)
	}
	for k, op := range operands {
		if len(op) != n {
			return nil, fmt.Errorf("bitserial: operand %d has %d elements, want %d", k, len(op), n)
		}
	}
	if need := len(operands) * bits; need > p.Rows {
		return nil, fmt.Errorf("bitserial: %d operands of %d planes exceed program %q region of %d rows",
			len(operands), bits, p.Name, p.Rows)
	}
	// Small inputs run in one narrow batch; wide inputs use full row-buffer
	// batches (engine width must be a multiple of 64).
	width := BatchWidth
	if n < width {
		width = (n + 63) &^ 63
	}
	nBatches := (n + width - 1) / width
	out := make([]int64, n)
	errs := make([]error, nBatches)
	par.For(par.Resolve(workers), nBatches, func(i int) {
		lo := i * width
		hi := lo + width
		if hi > n {
			hi = n
		}
		e := NewEngine(p.Rows, width)
		for k, op := range operands {
			e.LoadVertical(k*bits, bits, op[lo:hi])
		}
		if err := e.Run(p, 0); err != nil {
			errs[i] = err
			return
		}
		e.readVertical(out[lo:hi], p.DstBase, bits)
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
