package paralleltest

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"pimeval/internal/device"
	"pimeval/internal/dram"
	"pimeval/internal/fault"
	"pimeval/internal/isa"
)

// runRecycleScript is a gemv-style channel loop: every round allocates two
// temporaries of the same length next to a live operand, writes them through
// the sharded engine, reduces, and frees them — so from the second round on
// each temporary lands in the storage the previous round freed. It returns
// every round's reads, reductions and fault counters.
func runRecycleScript(t *testing.T, workers int, fc *fault.Config) []any {
	t.Helper()
	const dt = isa.Int32
	d, err := device.New(device.Config{Target: device.TargetFulcrum, Module: dram.DDR4(1),
		Functional: true, Workers: workers, Faults: fc})
	if err != nil {
		t.Fatal(err)
	}
	av, bv := inputs(dt, 5)
	a, err := d.Alloc(nElems, dt)
	if err != nil {
		t.Fatal(err)
	}
	// Faults may make a write uncorrectable under ECC; the data still
	// lands, and the error is part of the observed result.
	var out []any
	note := func(err error) { out = append(out, fmt.Sprint(err)) }
	note(d.CopyHostToDevice(a, av))
	for round := 0; round < 6; round++ {
		tmp, err := d.Alloc(nElems, dt)
		if err != nil {
			t.Fatal(err)
		}
		prod, err := d.Alloc(nElems, dt)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := d.CopyDeviceToHost(prod)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, fresh)
		note(d.CopyHostToDevice(tmp, bv))
		note(d.ExecScalar(isa.OpAdd, tmp, int64(round), tmp))
		note(d.ExecBinary(isa.OpMul, a, tmp, prod))
		sums, err := d.RedSumSeg(prod, segLen)
		note(err)
		got, err := d.CopyDeviceToHost(prod)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, sums, got)
		for _, id := range []device.ObjID{tmp, prod} {
			if err := d.Free(id); err != nil {
				t.Fatal(err)
			}
		}
	}
	return append(out, d.FaultCounts(), d.Stats().Kernel())
}

// TestObjectStorageRecycledAcrossWorkers checks that objects whose storage
// is recycled from freed ones compute bit-identically at every worker count,
// with and without faults and ECC. Under -race it also checks that the
// shards writing a recycled array never race with the free that released
// it or the allocation that cleared it.
func TestObjectStorageRecycledAcrossWorkers(t *testing.T) {
	for _, fc := range []*fault.Config{nil, faultCfg(21, false), faultCfg(21, true)} {
		ref := runRecycleScript(t, 1, fc)
		for _, w := range append([]int{runtime.NumCPU()}, workerCounts...) {
			if got := runRecycleScript(t, w, fc); !reflect.DeepEqual(got, ref) {
				t.Errorf("faults %+v, workers=%d: recycled-storage run differs from Workers=1", fc, w)
			}
		}
	}
}
