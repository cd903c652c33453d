package paralleltest

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"pimeval/internal/cmdstream"
	"pimeval/internal/device"
	"pimeval/internal/dram"
	"pimeval/internal/fault"
	"pimeval/internal/isa"
)

// Fault-injection determinism proofs. Injection runs serially in the
// dispatcher and is keyed by (seed, write sequence number), so for a fixed
// fault configuration the injected faults — and therefore every observable:
// output data, fault/ECC counters, statistics, and the command trace — must
// be bit-identical regardless of the worker-pool size, and must reproduce
// exactly when a recorded stream is replayed.

// faultCfg is a configuration dense enough to exercise transient flips,
// stuck-at bits, and the ECC adjudication path in one short script.
func faultCfg(seed int64, ecc bool) *fault.Config {
	return &fault.Config{
		Seed:             seed,
		TransientBitRate: 1e-4,
		StuckBits:        16,
		ECC:              ecc,
	}
}

// faultSnapshot is one fault run's complete observable state.
type faultSnapshot struct {
	snapshot
	Counts fault.Counts
}

// runFaultScript executes a fixed command script on a fresh fault-injecting
// device and captures every observable. The script mixes host-to-device
// copies, binary/scalar/unary execs, a device-to-device copy, and a
// reduction so faults land on every write path.
func runFaultScript(t *testing.T, tgt device.Target, workers int, fc *fault.Config, record bool) (faultSnapshot, *device.Device) {
	t.Helper()
	d, err := device.New(device.Config{
		Target: tgt, Module: dram.DDR4(1), Functional: true, Workers: workers,
		Faults: fc,
	})
	if err != nil {
		t.Fatalf("New(%v, workers=%d): %v", tgt, workers, err)
	}
	d.EnableTrace()
	if record {
		d.StartRecording()
	}
	snap := faultSnapshot{snapshot: snapshot{
		Outputs: make(map[string][]int64),
		Sums:    make(map[string]int64),
		SegSums: make(map[string][]int64),
	}}
	runFaultOps(t, d, &snap)
	return snap, d
}

// runFaultOps drives the script against an already-built device and fills
// the snapshot; shared between fresh runs and replay verification.
func runFaultOps(t *testing.T, d *device.Device, snap *faultSnapshot) {
	t.Helper()
	const dt = isa.Int32
	av, bv := inputs(dt, 99)
	alloc := func(vals []int64) device.ObjID {
		id, err := d.Alloc(nElems, dt)
		if err != nil {
			t.Fatalf("Alloc: %v", err)
		}
		if vals != nil {
			if err := d.CopyHostToDevice(id, vals); err != nil {
				t.Fatalf("CopyHostToDevice: %v", err)
			}
		}
		return id
	}
	a, b, dst, mirror := alloc(av), alloc(bv), alloc(nil), alloc(nil)
	read := func(key string, id device.ObjID) {
		out, err := d.CopyDeviceToHost(id)
		if err != nil {
			t.Fatalf("read %s: %v", key, err)
		}
		snap.Outputs[key] = out
	}
	for _, op := range []isa.Op{isa.OpAdd, isa.OpMul, isa.OpXor} {
		if err := d.ExecBinary(op, a, b, dst); err != nil {
			t.Fatalf("%v: %v", op, err)
		}
		read("bin."+op.String(), dst)
	}
	if err := d.ExecScalar(isa.OpAdd, a, 7, dst); err != nil {
		t.Fatalf("scalar add: %v", err)
	}
	read("scalar.add", dst)
	if err := d.ExecUnary(isa.OpNot, a, dst); err != nil {
		t.Fatalf("not: %v", err)
	}
	read("un.not", dst)
	if err := d.CopyDeviceToDevice(dst, mirror); err != nil {
		t.Fatalf("d2d: %v", err)
	}
	read("d2d", mirror)
	sum, err := d.RedSum(dst)
	if err != nil {
		t.Fatalf("redsum: %v", err)
	}
	snap.Sums["dst"] = sum

	st := d.Stats()
	snap.Commands = st.Commands()
	snap.OpCounts = st.OpCounts()
	snap.Copies = st.Copies()
	snap.HostNS, snap.HostPJ = st.Host().TimeNS, st.Host().EnergyPJ
	snap.KernelNS, snap.KernelPJ = st.Kernel().TimeNS, st.Kernel().EnergyPJ
	snap.Trace = d.TraceString()
	snap.Counts = d.FaultCounts()
}

// diffFault asserts two fault runs are bit-identical in every observable,
// including the fault/ECC counters.
func diffFault(t *testing.T, label string, ref, got faultSnapshot) {
	t.Helper()
	diff(t, label, ref.snapshot, got.snapshot)
	if got.Counts != ref.Counts {
		t.Errorf("%s: fault counts differ: %+v vs %+v", label, got.Counts, ref.Counts)
	}
}

// TestFaultInjectionDeterministicAcrossWorkers is the determinism proof for
// the fault stage: a fixed seed produces bit-identical faulted data, fault
// counters, statistics, and traces at every worker-pool size, with and
// without the ECC model.
func TestFaultInjectionDeterministicAcrossWorkers(t *testing.T) {
	for _, tgt := range []device.Target{device.TargetFulcrum, device.TargetBitSerial} {
		for _, ecc := range []bool{false, true} {
			tgt, ecc := tgt, ecc
			t.Run(fmt.Sprintf("%v/ecc=%v", tgt, ecc), func(t *testing.T) {
				t.Parallel()
				ref, _ := runFaultScript(t, tgt, 1, faultCfg(12345, ecc), false)
				if !ref.Counts.Any() {
					t.Fatal("fault configuration injected nothing; test is vacuous")
				}
				counts := append([]int{}, workerCounts...)
				counts = append(counts, runtime.NumCPU())
				for _, w := range counts {
					got, _ := runFaultScript(t, tgt, w, faultCfg(12345, ecc), false)
					diffFault(t, fmt.Sprintf("%v/ecc=%v/workers=%d", tgt, ecc, w), ref, got)
				}
			})
		}
	}
}

// TestFaultInjectionSeedSelectsFaults pins that the seed actually drives the
// injection: two different seeds at the same rate must diverge somewhere.
func TestFaultInjectionSeedSelectsFaults(t *testing.T) {
	a, _ := runFaultScript(t, device.TargetFulcrum, 1, faultCfg(1, false), false)
	b, _ := runFaultScript(t, device.TargetFulcrum, 1, faultCfg(2, false), false)
	if reflect.DeepEqual(a.Outputs, b.Outputs) && a.Counts == b.Counts {
		t.Error("seeds 1 and 2 produced identical faulted runs; seed is not wired through")
	}
}

// TestFaultReplayReproducesInjection records a faulted run, replays the
// stream on a fresh device built from its header (at a different worker
// count), and asserts the replayed data and fault counters match the
// original bit for bit — the record/replay half of the determinism contract.
func TestFaultReplayReproducesInjection(t *testing.T) {
	for _, ecc := range []bool{false, true} {
		ecc := ecc
		t.Run(fmt.Sprintf("ecc=%v", ecc), func(t *testing.T) {
			t.Parallel()
			ref, d := runFaultScript(t, device.TargetFulcrum, 4, faultCfg(777, ecc), true)
			s := d.RecordedStream()
			if s == nil || s.Header.Faults == nil {
				t.Fatal("recorded stream missing fault configuration in header")
			}
			rd, err := device.NewFromStream(s, 2)
			if err != nil {
				t.Fatalf("NewFromStream: %v", err)
			}
			if err := cmdstream.Replay(rd, s); err != nil {
				t.Fatalf("Replay: %v", err)
			}
			if got := rd.FaultCounts(); got != ref.Counts {
				t.Errorf("replay fault counts differ: %+v vs %+v", got, ref.Counts)
			}
			// The replayed device holds the same objects under the same IDs
			// (allocation order is fixed by the stream); the faulted payloads
			// must match the original run's reads.
			// Object 3 is dst, object 4 is mirror (IDs 1..4 in alloc order).
			for id, key := range map[device.ObjID]string{4: "d2d"} {
				out, err := rd.CopyDeviceToHost(id)
				if err != nil {
					t.Fatalf("replay read obj %d: %v", id, err)
				}
				if !reflect.DeepEqual(out, ref.Outputs[key]) {
					t.Errorf("replayed object %d differs from original %q output", id, key)
				}
			}
		})
	}
}

// TestNoFaultConfigMatchesNilConfig pins the byte-identical no-fault path: a
// zero-valued fault configuration (nothing enabled) behaves exactly like no
// configuration at all — same data, stats, trace, and zero fault counters.
func TestNoFaultConfigMatchesNilConfig(t *testing.T) {
	ref, _ := runFaultScript(t, device.TargetFulcrum, 4, nil, false)
	got, d := runFaultScript(t, device.TargetFulcrum, 4, &fault.Config{Seed: 9}, false)
	if d.FaultCounts().Any() {
		t.Error("disabled fault config reported counts")
	}
	diffFault(t, "zero fault config vs nil", ref, got)
}
