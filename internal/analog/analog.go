// Package analog models the analog bit-serial PIM architecture family
// (Ambit / SIMDRAM) that the paper contrasts with its digital DRAM-AP
// design (Section IV) and names as an in-progress PIMeval extension
// (Section IX: "PIMeval is already being extended to support various forms
// of analog bit-serial PIM").
//
// Analog bit-serial PIM computes with charge sharing on the bitlines:
//
//   - TRA (triple row activation) simultaneously activates three
//     designated compute rows; the bitlines settle to the MAJority of the
//     three values, which is written back into all three cells.
//   - NOT requires dual-contact cells (DCC): copying a row through a DCC
//     produces its complement.
//   - AAP (activate-activate-precharge) copies one row into another
//     (RowClone); because only a handful of rows are TRA-capable, every
//     operand must first be copied into the compute rows — the copy
//     overhead the paper cites as a drawback of the analog approach.
//
// The package mirrors internal/bitserial: a microprogram compiler over the
// MAJ/NOT/copy micro-op set, a functional interpreter used to verify every
// microprogram against word-level semantics, and a cost model. Comparing
// the two packages' microprogram lengths is precisely the paper's
// digital-vs-analog argument.
package analog

import (
	"fmt"

	"pimeval/internal/bitserial"
)

// Kind identifies an analog micro-op.
type Kind uint8

// The Ambit-style micro-op set.
const (
	KAAP Kind = iota // dst row = src row (RowClone copy)
	KNot             // dst row = NOT src row (via dual-contact cells)
	KTRA             // maj of compute rows T0,T1,T2 written to all three
	KSet             // dst row = all-0 or all-1 (control row preset)
)

var kindNames = [...]string{"aap", "not", "tra", "set"}

// String returns the micro-op mnemonic.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("k?%d", uint8(k))
}

// Compute-row addresses. Operand bit planes use non-negative rows within
// the program's virtual region; the TRA triple and scratch rows use
// reserved negative addresses resolved by the interpreter.
const (
	T0 = -1 - iota
	T1
	T2
	S0 // general scratch rows
	S1
	S2
	numReserved = 6
)

// MicroOp is one analog compute step.
type MicroOp struct {
	Kind     Kind
	Src, Dst int32
	Val      bool // for KSet
}

// Counts summarizes a program's micro-op composition.
type Counts struct {
	AAPs int // row-to-row copies (2 activation windows each)
	Nots int // dual-contact complement copies
	TRAs int // triple row activations
	Sets int // control row presets
}

// Total returns the total micro-op count.
func (c Counts) Total() int { return c.AAPs + c.Nots + c.TRAs + c.Sets }

// Program is a compiled analog microprogram over a virtual operand region
// of Rows bit planes, with the destination based at DstBase.
type Program struct {
	Name    string
	Ops     []MicroOp
	Rows    int
	DstBase int
}

// Counts tallies the program's composition.
func (p *Program) Counts() Counts {
	var c Counts
	for _, op := range p.Ops {
		switch op.Kind {
		case KAAP:
			c.AAPs++
		case KNot:
			c.Nots++
		case KTRA:
			c.TRAs++
		case KSet:
			c.Sets++
		}
	}
	return c
}

// Engine interprets analog microprograms over a bit matrix (columns are
// bitlines, exactly as in the digital engine) plus the reserved compute
// rows.
type Engine struct {
	width    int
	words    int
	rows     [][]uint64
	reserved [numReserved][]uint64
}

// NewEngine allocates an engine; width must be a positive multiple of 64.
func NewEngine(rows, width int) *Engine {
	if width <= 0 || width%64 != 0 {
		panic(fmt.Sprintf("analog: width %d must be a positive multiple of 64", width))
	}
	if rows <= 0 {
		panic("analog: rows must be positive")
	}
	e := &Engine{width: width, words: width / 64}
	e.rows = make([][]uint64, rows)
	backing := make([]uint64, rows*e.words)
	for i := range e.rows {
		e.rows[i], backing = backing[:e.words:e.words], backing[e.words:]
	}
	for i := range e.reserved {
		e.reserved[i] = make([]uint64, e.words)
	}
	return e
}

// row resolves a row address (reserved negative or operand-region).
func (e *Engine) row(addr int32, base int) ([]uint64, error) {
	if addr < 0 {
		idx := -1 - int(addr)
		if idx >= numReserved {
			return nil, fmt.Errorf("analog: reserved row %d out of range", addr)
		}
		return e.reserved[idx], nil
	}
	r := base + int(addr)
	if r < 0 || r >= len(e.rows) {
		return nil, fmt.Errorf("analog: row %d outside matrix of %d", r, len(e.rows))
	}
	return e.rows[r], nil
}

// Run interprets the program with its operand region mapped at row base.
func (e *Engine) Run(p *Program, base int) error {
	if base < 0 || base+p.Rows > len(e.rows) {
		return fmt.Errorf("analog: program %q region outside matrix", p.Name)
	}
	for i, op := range p.Ops {
		switch op.Kind {
		case KAAP, KNot:
			src, err := e.row(op.Src, base)
			if err != nil {
				return fmt.Errorf("analog: op %d: %w", i, err)
			}
			dst, err := e.row(op.Dst, base)
			if err != nil {
				return fmt.Errorf("analog: op %d: %w", i, err)
			}
			if op.Kind == KAAP {
				copy(dst, src)
			} else {
				for w := range dst {
					dst[w] = ^src[w]
				}
			}
		case KTRA:
			a, b, c := e.reserved[0], e.reserved[1], e.reserved[2]
			for w := range a {
				maj := (a[w] & b[w]) | (b[w] & c[w]) | (a[w] & c[w])
				a[w], b[w], c[w] = maj, maj, maj
			}
		case KSet:
			dst, err := e.row(op.Dst, base)
			if err != nil {
				return fmt.Errorf("analog: op %d: %w", i, err)
			}
			var v uint64
			if op.Val {
				v = ^uint64(0)
			}
			for w := range dst {
				dst[w] = v
			}
		default:
			return fmt.Errorf("analog: op %d: unknown kind %d", i, op.Kind)
		}
	}
	return nil
}

// LoadVertical stores values vertically (element j at column j, bit i at
// row base+i), through the digital engine's layout transform.
func (e *Engine) LoadVertical(base, bits int, values []int64) {
	bitserial.LoadPlanes(e.rows[base:base+bits], values)
}

// ReadVertical extracts count elements of the given width at row base.
func (e *Engine) ReadVertical(base, bits, count int) []int64 {
	out := make([]int64, count)
	bitserial.ReadPlanes(out, e.rows[base:base+bits])
	return out
}
