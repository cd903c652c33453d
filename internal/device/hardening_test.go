package device

import (
	"context"
	"errors"
	"testing"
	"time"

	"pimeval/internal/cmdstream"
	"pimeval/internal/dram"
	"pimeval/internal/fault"
	"pimeval/internal/isa"
	"pimeval/internal/perf"
)

// Tests for the hardened execution path: the sentinel error taxonomy
// (use-after-free, cancellation, panic recovery) and the device-level ECC
// accounting behavior.

// TestUseAfterFreeReturnsErrFreed pins that every operation touching a freed
// object fails with ErrFreed — distinct from ErrBadObject — so callers can
// tell a lifetime bug from a corrupted handle.
func TestUseAfterFreeReturnsErrFreed(t *testing.T) {
	d := newDev(t, TargetFulcrum)
	a, err := d.Alloc(64, isa.Int32)
	if err != nil {
		t.Fatal(err)
	}
	b, err := d.Alloc(64, isa.Int32)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.CopyHostToDevice(a, make([]int64, 64)); err != nil {
		t.Fatal(err)
	}
	if err := d.Free(a); err != nil {
		t.Fatal(err)
	}
	checks := map[string]error{
		"double free":  d.Free(a),
		"exec dst":     d.ExecBinary(isa.OpAdd, b, b, a),
		"exec src":     d.ExecBinary(isa.OpAdd, a, b, b),
		"exec unary":   d.ExecUnary(isa.OpNot, a, b),
		"h2d copy":     d.CopyHostToDevice(a, make([]int64, 64)),
		"d2d copy src": d.CopyDeviceToDevice(a, b),
		"d2d copy dst": d.CopyDeviceToDevice(b, a),
		"broadcast":    d.Broadcast(a, 1),
	}
	if _, err := d.CopyDeviceToHost(a); err == nil {
		t.Error("d2h copy of freed object succeeded")
	} else {
		checks["d2h copy"] = err
	}
	if _, err := d.RedSum(a); err == nil {
		t.Error("RedSum of freed object succeeded")
	} else {
		checks["redsum"] = err
	}
	for name, err := range checks {
		if !errors.Is(err, ErrFreed) {
			t.Errorf("%s: got %v, want ErrFreed", name, err)
		}
		if errors.Is(err, ErrBadObject) {
			t.Errorf("%s: ErrFreed must not alias ErrBadObject", name)
		}
	}
	// A never-allocated ID is a different bug and keeps ErrBadObject.
	if err := d.Free(ObjID(9999)); !errors.Is(err, ErrBadObject) {
		t.Errorf("free of unknown ID: got %v, want ErrBadObject", err)
	}
}

// TestCancellationStopsDispatch pins the cancellation contract: after the
// installed context is canceled, every operation fails with an error that
// errors.Is-matches both ErrCanceled and the context's own error.
func TestCancellationStopsDispatch(t *testing.T) {
	d := newDev(t, TargetFulcrum)
	a, err := d.Alloc(64, isa.Int32)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	d.SetContext(ctx)
	if err := d.CopyHostToDevice(a, make([]int64, 64)); err != nil {
		t.Fatalf("pre-cancel operation failed: %v", err)
	}
	cancel()
	ops := map[string]func() error{
		"exec": func() error { return d.ExecBinary(isa.OpAdd, a, a, a) },
		"h2d":  func() error { return d.CopyHostToDevice(a, make([]int64, 64)) },
		"d2h":  func() error { _, err := d.CopyDeviceToHost(a); return err },
		"alloc": func() error {
			_, err := d.Alloc(8, isa.Int32)
			return err
		},
		"free": func() error { return d.Free(a) },
	}
	for name, op := range ops {
		err := op()
		if !errors.Is(err, ErrCanceled) {
			t.Errorf("%s after cancel: got %v, want ErrCanceled", name, err)
		}
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s after cancel: does not wrap context.Canceled: %v", name, err)
		}
	}
	// Removing the hook restores normal operation.
	d.SetContext(nil)
	if err := d.ExecBinary(isa.OpAdd, a, a, a); err != nil {
		t.Errorf("operation after SetContext(nil): %v", err)
	}
}

// TestDeadlineExceededMatchesErrCanceled pins that a deadline expiry is also
// reported through ErrCanceled, wrapping context.DeadlineExceeded.
func TestDeadlineExceededMatchesErrCanceled(t *testing.T) {
	d := newDev(t, TargetFulcrum)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Hour))
	defer cancel()
	d.SetContext(ctx)
	_, err := d.Alloc(8, isa.Int32)
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("got %v, want ErrCanceled wrapping DeadlineExceeded", err)
	}
}

// panicSink is a recording destination that panics on its first record
// once armed, modeling a poisoned stage behind the dispatch boundary.
type panicSink struct{ armed bool }

func (p *panicSink) Begin(cmdstream.Header) error { return nil }
func (p *panicSink) Close() error                 { return nil }

func (p *panicSink) Write(*cmdstream.Record) error {
	if p.armed {
		p.armed = false
		panic("sink poisoned")
	}
	return nil
}

// TestPanicRecoveredAtDispatchBoundary pins the panic boundary: on the
// hardened path (here enabled by installing a context; fault injection
// enables it too) a panic in the pipeline surfaces as an error wrapping
// ErrPanic, and the device keeps serving subsequent operations.
func TestPanicRecoveredAtDispatchBoundary(t *testing.T) {
	d := newDev(t, TargetFulcrum)
	d.SetContext(context.Background())
	a, err := d.Alloc(64, isa.Int32)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.CopyHostToDevice(a, make([]int64, 64)); err != nil {
		t.Fatal(err)
	}
	if err := d.StartRecordingTo(&panicSink{armed: true}); err != nil {
		t.Fatal(err)
	}
	err = d.ExecBinary(isa.OpAdd, a, a, a)
	if !errors.Is(err, ErrPanic) {
		t.Fatalf("got %v, want ErrPanic", err)
	}
	// The device survives: the next operation succeeds.
	if err := d.ExecBinary(isa.OpAdd, a, a, a); err != nil {
		t.Errorf("operation after recovered panic: %v", err)
	}
}

// TestECCUncorrectableSurfacesError pins that a failed core under ECC
// produces ErrUncorrectable at the API boundary and counts the detected
// words, while the write itself still lands (detected-but-uncorrected data
// stays resident, as on real hardware).
func TestECCUncorrectableSurfacesError(t *testing.T) {
	d, err := New(Config{
		Target: TargetFulcrum, Module: dram.DDR4(1), Functional: true, Workers: 1,
		Faults: &fault.Config{Seed: 3, FailedCores: 1, ECC: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	// One object per core region: DDR4 x1 fulcrum has thousands of cores,
	// so allocate enough elements to hit every core including the failed one.
	n := int64(d.Cores() * 2)
	a, err := d.Alloc(n, isa.Int32)
	if err != nil {
		t.Fatal(err)
	}
	err = d.CopyHostToDevice(a, make([]int64, n))
	if !errors.Is(err, ErrUncorrectable) {
		t.Fatalf("write spanning a failed core: got %v, want ErrUncorrectable", err)
	}
	if c := d.FaultCounts(); c.Detected == 0 || c.FailedWords == 0 {
		t.Errorf("counts = %+v, want Detected and FailedWords > 0", c)
	}
}

// TestECCOverheadCharged pins that enabling ECC charges the modeled
// maintenance overhead (1/8 of the protected cost) into the stats, and that
// it is tracked separately from the base cost.
func TestECCOverheadCharged(t *testing.T) {
	run := func(fc *fault.Config) (kernel perf.Cost, ecc perf.Cost) {
		d, err := New(Config{
			Target: TargetFulcrum, Module: dram.DDR4(1), Functional: true, Workers: 1,
			Faults: fc,
		})
		if err != nil {
			t.Fatal(err)
		}
		a, err := d.Alloc(256, isa.Int32)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.CopyHostToDevice(a, make([]int64, 256)); err != nil {
			t.Fatal(err)
		}
		if err := d.ExecBinary(isa.OpAdd, a, a, a); err != nil {
			t.Fatal(err)
		}
		return d.Stats().Kernel(), d.Stats().ECCOverhead()
	}
	baseKernel, baseECC := run(nil)
	if baseECC != (perf.Cost{}) {
		t.Fatalf("fault-free run charged ECC overhead %+v", baseECC)
	}
	eccKernel, eccCost := run(&fault.Config{Seed: 1, ECC: true})
	if eccCost == (perf.Cost{}) {
		t.Fatal("ECC run charged no overhead")
	}
	if eccKernel.TimeNS <= baseKernel.TimeNS {
		t.Errorf("ECC kernel time %v not above base %v", eccKernel.TimeNS, baseKernel.TimeNS)
	}
}
