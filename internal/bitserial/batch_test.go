package bitserial

import (
	"math/rand"
	"testing"

	"pimeval/internal/isa"
)

// TestEvalElementsMatchesSingleEngine checks the batch runner against a
// hand-driven single engine: one element, a partial second word, one full
// narrow batch, and one full-width batch plus a one-element second batch.
func TestEvalElementsMatchesSingleEngine(t *testing.T) {
	p, err := Build(isa.OpAdd, isa.Int16, 0)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 65, 128, BatchWidth + 1} {
		a := make([]int64, n)
		b := make([]int64, n)
		for i := range a {
			a[i] = isa.Int16.Truncate(rng.Int63())
			b[i] = isa.Int16.Truncate(rng.Int63())
		}
		e := NewEngine(p.Rows, (n+63)&^63)
		e.LoadVertical(0, 16, a)
		e.LoadVertical(16, 16, b)
		if err := e.Run(p, 0); err != nil {
			t.Fatal(err)
		}
		want := e.ReadVertical(p.DstBase, 16, n)

		got, err := EvalElements(p, 16, n, [][]int64{a, b}, 1)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("n=%d: EvalElements[%d] = %d, want %d", n, i, got[i], want[i])
			}
		}
	}
}

// TestEvalElementsWorkerInvariance proves the batch decomposition is
// invisible: every worker count yields bit-identical output, including on
// inputs that span multiple batches with a ragged tail.
func TestEvalElementsWorkerInvariance(t *testing.T) {
	p, err := Build(isa.OpMul, isa.Int8, 0)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	n := 2*BatchWidth + 777 // three batches, last one ragged
	a := make([]int64, n)
	b := make([]int64, n)
	for i := range a {
		a[i] = isa.Int8.Truncate(rng.Int63())
		b[i] = isa.Int8.Truncate(rng.Int63())
	}
	ref, err := EvalElements(p, 8, n, [][]int64{a, b}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 8} {
		got, err := EvalElements(p, 8, n, [][]int64{a, b}, workers)
		if err != nil {
			t.Fatal(err)
		}
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("workers=%d: element %d = %d, want %d", workers, i, got[i], ref[i])
			}
		}
	}
	// Spot-check the semantics too, not just self-consistency.
	for i := 0; i < n; i += 997 {
		want := isa.UInt8.Truncate(a[i] * b[i]) // zero-extended view
		if ref[i] != want {
			t.Fatalf("mul.int8[%d](%d,%d) = %d, want %d", i, a[i], b[i], ref[i], want)
		}
	}
}

func TestEvalElementsValidation(t *testing.T) {
	p, err := Build(isa.OpAdd, isa.Int8, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := EvalElements(p, 8, 0, nil, 1); err == nil {
		t.Error("zero element count accepted")
	}
	if _, err := EvalElements(p, 8, 4, [][]int64{{1, 2}}, 1); err == nil {
		t.Error("short operand accepted")
	}
	if _, err := EvalElements(p, 8, 2, [][]int64{{1, 2}, {3, 4}, {5, 6}, {7, 8}}, 1); err == nil {
		t.Error("operand overflow of program region accepted")
	}
	if _, err := EvalElements(p, 0, 2, nil, 1); err == nil {
		t.Error("zero width accepted")
	}
}
