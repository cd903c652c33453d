package device

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"testing"

	"pimeval/internal/dram"
	"pimeval/internal/fault"
	"pimeval/internal/isa"
)

// faultGoldenConfigs are the pinned fault environments: transient flips,
// stuck bits and one failed core, scoped to the first cores so every object
// below crosses the faulty region, without and with SEC-DED.
func faultGoldenConfigs() map[string]*fault.Config {
	base := fault.Config{Seed: 23, TransientBitRate: 2e-3, StuckBits: 48, FailedCores: 1, NumCores: 6}
	ecc := base
	ecc.ECC = true
	return map[string]*fault.Config{"noecc": &base, "ecc": &ecc}
}

// faultGoldenHashes pin the faulted device state per configuration.
var faultGoldenHashes = map[string]string{
	"noecc": "7a75f85a1ba7c2bc186f7dd417e194c06e49956b2992a46133337c534f1ff791",
	"ecc":   "b74dbacda9cde23dfc027dc33872519a4fa5902fe5e2e419131f264d8ae82320",
}

// faultGoldenRun drives one functional device with fc through every element
// type: a host copy, binary, scalar, unary and shift commands, a compare into
// a uint8 mask, a select on that mask, a broadcast, a ranged device copy and
// a reduction. It returns the SHA-256 of the device's snapshot followed by
// each command's verdict and each reduction's result.
func faultGoldenRun(t *testing.T, fc *fault.Config, workers int) string {
	t.Helper()
	d, err := New(Config{Target: TargetBankLevel, Module: dram.DDR4(1), Functional: true,
		Workers: workers, Faults: fc})
	if err != nil {
		t.Fatal(err)
	}
	var log bytes.Buffer
	step := func(what string, err error) {
		t.Helper()
		if err != nil && !errors.Is(err, ErrUncorrectable) {
			t.Fatalf("%s: %v", what, err)
		}
		fmt.Fprintf(&log, "%s: %v\n", what, err != nil)
	}
	alloc := func(n int64, dt isa.DataType) ObjID {
		t.Helper()
		id, err := d.Alloc(n, dt)
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	const n = 1500
	for dt := isa.DataType(0); int(dt) < isa.NumTypes; dt++ {
		a, b, c := alloc(n, dt), alloc(n, dt), alloc(n, dt)
		mask := alloc(n, isa.UInt8)
		step(dt.String()+" h2d a", d.CopyHostToDevice(a, snapValues(n, int64(dt)*7+1)))
		step(dt.String()+" h2d b", d.CopyHostToDevice(b, snapValues(n, int64(dt)*7+2)))
		step(dt.String()+" add", d.ExecBinary(isa.OpAdd, a, b, c))
		step(dt.String()+" mul", d.ExecBinary(isa.OpMul, c, a, c))
		step(dt.String()+" xor scalar", d.ExecScalar(isa.OpXor, c, -3, c))
		step(dt.String()+" not", d.ExecUnary(isa.OpNot, b, b))
		step(dt.String()+" shift", d.ExecShift(isa.OpShiftR, c, 2, a))
		step(dt.String()+" lt", d.ExecBinary(isa.OpLt, a, c, mask))
		step(dt.String()+" select", d.ExecSelect(mask, a, c, b))
		step(dt.String()+" broadcast", d.Broadcast(c, -77))
		step(dt.String()+" d2d range", d.CopyDeviceToDeviceRange(b, 5, c, 900, 400))
		sum, err := d.RedSum(c)
		step(dt.String()+" redsum", err)
		fmt.Fprintf(&log, "%v sum %d\n", dt, sum)
		if err := d.Free(a); err != nil {
			t.Fatal(err)
		}
	}
	fmt.Fprintf(&log, "faults %+v\n", d.FaultCounts())
	h := sha256.New()
	h.Write(snapshotBytes(t, d, 0))
	h.Write(log.Bytes())
	return hex.EncodeToString(h.Sum(nil))
}

// TestFaultGolden pins the bits fault injection leaves in objects of every
// element width, with and without ECC, and checks that the worker count
// does not change them.
func TestFaultGolden(t *testing.T) {
	for name, fc := range faultGoldenConfigs() {
		t.Run(name, func(t *testing.T) {
			got := faultGoldenRun(t, fc, 1)
			if want := faultGoldenHashes[name]; got != want {
				t.Errorf("faulted state changed: sha256 %s, want %s", got, want)
			}
			if par := faultGoldenRun(t, fc, 4); par != got {
				t.Errorf("4 workers: sha256 %s, 1 worker %s", par, got)
			}
		})
	}
}
