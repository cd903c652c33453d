// Package bitserial implements the paper's digital subarray-level bit-serial
// PIM architecture ("DRAM-AP", Section IV): a bit processing element behind
// every sense amplifier, operating on vertically-laid-out data one bit plane
// (DRAM row) at a time.
//
// Each bitline PE has the sense-amplifier latch (RSA) plus four bit
// registers (R1-R4) and supports the digital micro-ops of Micron's IMI-style
// design with associative extensions: row read/write, register move/set,
// AND, XNOR, and SEL (2:1 mux). High-level integer operations are compiled
// to microprograms of these micro-ops by this package; the memory controller
// broadcasts the microprogram to every subarray, so one microprogram pass
// processes a full row-buffer-wide bit slice in every subarray at once.
//
// The package provides both the microprogram compiler (used by the
// performance model to count row reads, row writes, and logic steps) and a
// functional interpreter over a real bit matrix (used to verify that every
// microprogram computes exactly the word-level semantics).
package bitserial

import "fmt"

// Reg names one of the per-bitline storage elements.
type Reg uint8

// The per-bitline storage elements: the sense-amplifier latch and the four
// extra bit registers used for intermediates, conditions, and carries.
const (
	RSA Reg = iota
	R1
	R2
	R3
	R4
	numRegs
)

var regNames = [...]string{"rsa", "r1", "r2", "r3", "r4"}

// String returns the register mnemonic.
func (r Reg) String() string {
	if int(r) < len(regNames) {
		return regNames[r]
	}
	return fmt.Sprintf("r?%d", uint8(r))
}

// Kind identifies a micro-op.
type Kind uint8

// The DRAM-AP micro-op set.
const (
	KRead  Kind = iota // RSA <- row[Row]
	KWrite             // row[Row] <- RSA
	KSet               // Dst <- Val (0 or 1 broadcast)
	KMove              // Dst <- A
	KAnd               // Dst <- A & B
	KXnor              // Dst <- ~(A ^ B)
	KSel               // Dst <- C ? A : B   (2:1 mux, condition in C)
)

var kindNames = [...]string{"read", "write", "set", "move", "and", "xnor", "sel"}

// String returns the micro-op mnemonic.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("k?%d", uint8(k))
}

// MicroOp is one broadcast step of a microprogram. Row indices are relative
// to the virtual operand region laid out by the program builder (see
// programs.go for the operand base convention). Row comes first so the
// struct packs into 12 bytes.
type MicroOp struct {
	Row     int32
	Kind    Kind
	Dst     Reg
	A, B, C Reg
	Val     bool
}

// Counts summarizes the cost-relevant composition of a microprogram.
type Counts struct {
	Reads  int // row activations into RSA
	Writes int // row write-backs from RSA
	Logic  int // AND / XNOR / SEL gate steps
	Moves  int // register move / set steps
}

// Total returns the total micro-op count.
func (c Counts) Total() int { return c.Reads + c.Writes + c.Logic + c.Moves }

// Program is a compiled microprogram together with the operand-region shape
// it expects: Rows is the total number of rows in its virtual region and
// DstBase the first row of the destination operand's bit planes.
type Program struct {
	Name    string
	Ops     []MicroOp
	Rows    int
	DstBase int
}

// Counts tallies the program's micro-op composition.
func (p *Program) Counts() Counts {
	var c Counts
	for _, op := range p.Ops {
		switch op.Kind {
		case KRead:
			c.Reads++
		case KWrite:
			c.Writes++
		case KSet, KMove:
			c.Moves++
		default:
			c.Logic++
		}
	}
	return c
}

// Engine is a functional interpreter for microprograms over a bit matrix of
// the given width (one column per bitline). Width must be a multiple of 64.
type Engine struct {
	width int
	words int
	rows  int
	cells []uint64          // the matrix, row-major, words apiece
	regs  [numRegs][]uint64 // registers, in the same allocation as cells
}

// NewEngine allocates an engine with the given row count and bit width.
// It panics if width is not a positive multiple of 64 (programmer error:
// the row buffer width is a hardware constant).
func NewEngine(rows, width int) *Engine {
	if width <= 0 || width%64 != 0 {
		panic(fmt.Sprintf("bitserial: width %d must be a positive multiple of 64", width))
	}
	if rows <= 0 {
		panic("bitserial: rows must be positive")
	}
	e := &Engine{width: width, words: width / 64, rows: rows}
	mem := make([]uint64, (int(numRegs)+rows)*e.words)
	for r := range e.regs {
		e.regs[r], mem = mem[:e.words:e.words], mem[e.words:]
	}
	e.cells = mem
	return e
}

// row returns matrix row r.
func (e *Engine) row(r int) []uint64 {
	o := r * e.words
	return e.cells[o : o+e.words : o+e.words]
}

// planes returns views of rows [base, base+bits) in v.
func (e *Engine) planes(v *[64][]uint64, base, bits int) [][]uint64 {
	for i := 0; i < bits; i++ {
		v[i] = e.row(base + i)
	}
	return v[:bits]
}

// Width returns the engine's bit width (columns).
func (e *Engine) Width() int { return e.width }

// Rows returns the engine's row count.
func (e *Engine) Rows() int { return e.rows }

// Run interprets the program with its virtual region mapped at row `base`.
// It returns an error if the program touches rows outside the matrix.
func (e *Engine) Run(p *Program, base int) error {
	if base < 0 || base+p.Rows > e.rows {
		return fmt.Errorf("bitserial: program %q region [%d,%d) outside matrix of %d rows",
			p.Name, base, base+p.Rows, e.rows)
	}
	for i, op := range p.Ops {
		switch op.Kind {
		case KRead:
			copy(e.regs[RSA], e.row(base+int(op.Row)))
		case KWrite:
			copy(e.row(base+int(op.Row)), e.regs[RSA])
		case KSet:
			var v uint64
			if op.Val {
				v = ^uint64(0)
			}
			dst := e.regs[op.Dst]
			for w := range dst {
				dst[w] = v
			}
		case KMove:
			copy(e.regs[op.Dst], e.regs[op.A])
		case KAnd:
			dst, a, b := e.regs[op.Dst], e.regs[op.A], e.regs[op.B]
			for w := range dst {
				dst[w] = a[w] & b[w]
			}
		case KXnor:
			dst, a, b := e.regs[op.Dst], e.regs[op.A], e.regs[op.B]
			for w := range dst {
				dst[w] = ^(a[w] ^ b[w])
			}
		case KSel:
			dst, a, b, c := e.regs[op.Dst], e.regs[op.A], e.regs[op.B], e.regs[op.C]
			for w := range dst {
				dst[w] = (c[w] & a[w]) | (^c[w] & b[w])
			}
		default:
			return fmt.Errorf("bitserial: program %q op %d: unknown kind %d", p.Name, i, op.Kind)
		}
	}
	return nil
}

// SetBit sets one cell of the matrix: the cell-level definition of the
// layout that LoadVertical implements word-parallel.
func (e *Engine) SetBit(row, col int, v bool) {
	w, m := col/64, uint64(1)<<(col%64)
	if v {
		e.row(row)[w] |= m
	} else {
		e.row(row)[w] &^= m
	}
}

// Bit reads one cell of the matrix.
func (e *Engine) Bit(row, col int) bool {
	return e.row(row)[col/64]&(uint64(1)<<(col%64)) != 0
}

// LoadVertical stores values in vertical layout: element j occupies column
// j, with bit i of the element at row base+i (bits <= 64). Columns at or
// beyond len(values) keep their contents; value bits at or above bits are
// ignored.
func (e *Engine) LoadVertical(base, bits int, values []int64) {
	var v [64][]uint64
	LoadPlanes(e.planes(&v, base, bits), values)
}

// ReadVertical extracts count elements of the given width (at most 64)
// from vertical layout at row base, zero-extended into int64 carriers.
func (e *Engine) ReadVertical(base, bits, count int) []int64 {
	out := make([]int64, count)
	e.readVertical(out, base, bits)
	return out
}

// readVertical is ReadVertical into a caller-owned slice.
func (e *Engine) readVertical(out []int64, base, bits int) {
	var v [64][]uint64
	ReadPlanes(out, e.planes(&v, base, bits))
}
