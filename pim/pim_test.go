package pim

import (
	"slices"
	"strings"
	"testing"

	"pimeval/internal/cmdstream"
)

func newFunctional(t *testing.T, tgt Target) *Device {
	t.Helper()
	d, err := NewDevice(Config{Target: tgt, Ranks: 1, Functional: true})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestAXPYListing1AllTargets(t *testing.T) {
	// The paper's Listing 1 AXPY program, verbatim in Go, on all targets.
	const n = 1024
	const a = 7
	xs := make([]int32, n)
	for i := range xs {
		xs[i] = int32(i - n/2)
	}
	for _, tgt := range AllTargets {
		dev := newFunctional(t, tgt)
		ys := make([]int32, n)
		for i := range ys {
			ys[i] = int32(3 * i)
		}
		objX, err := dev.Alloc(n, Int32)
		if err != nil {
			t.Fatal(err)
		}
		objY, err := dev.AllocAssociated(objX)
		if err != nil {
			t.Fatal(err)
		}
		if err := CopyToDevice(dev, objX, xs); err != nil {
			t.Fatal(err)
		}
		if err := CopyToDevice(dev, objY, ys); err != nil {
			t.Fatal(err)
		}
		if err := dev.ScaledAdd(objX, objY, objY, a); err != nil {
			t.Fatal(err)
		}
		if err := CopyFromDevice(dev, objY, ys); err != nil {
			t.Fatal(err)
		}
		for i := range ys {
			want := a*xs[i] + int32(3*i)
			if ys[i] != want {
				t.Fatalf("%v: y[%d] = %d, want %d", tgt, i, ys[i], want)
			}
		}
		if err := dev.Free(objX); err != nil {
			t.Fatal(err)
		}
		if err := dev.Free(objY); err != nil {
			t.Fatal(err)
		}
		m := dev.Metrics()
		if m.KernelMS <= 0 || m.CopyMS <= 0 {
			t.Errorf("%v: metrics %+v", tgt, m)
		}
	}
}

func TestCopyGenericsTypes(t *testing.T) {
	dev := newFunctional(t, Fulcrum)
	id, _ := dev.Alloc(4, UInt8)
	if err := CopyToDevice(dev, id, []uint8{1, 255, 128, 0}); err != nil {
		t.Fatal(err)
	}
	out := make([]uint8, 4)
	if err := CopyFromDevice(dev, id, out); err != nil {
		t.Fatal(err)
	}
	if out[1] != 255 || out[2] != 128 {
		t.Errorf("uint8 round trip = %v", out)
	}
	short := make([]uint8, 2)
	if err := CopyFromDevice(dev, id, short); err == nil {
		t.Error("short destination accepted")
	}
}

func TestMaskPipeline(t *testing.T) {
	// lt -> select: the associative-processing composition benchmarks use.
	dev := newFunctional(t, BitSerial)
	vals := []int32{5, -3, 10, 0, -8}
	a, _ := dev.Alloc(5, Int32)
	mask, _ := dev.AllocAssociated(a)
	zero, _ := dev.AllocAssociated(a)
	dst, _ := dev.AllocAssociated(a)
	_ = CopyToDevice(dev, a, vals)
	if err := dev.Broadcast(zero, 0); err != nil {
		t.Fatal(err)
	}
	if err := dev.LtScalar(a, 0, mask); err != nil {
		t.Fatal(err)
	}
	// dst = a < 0 ? 0 : a  (ReLU)
	if err := dev.Select(mask, zero, a, dst); err != nil {
		t.Fatal(err)
	}
	out := make([]int32, 5)
	_ = CopyFromDevice(dev, dst, out)
	for i, want := range []int32{5, 0, 10, 0, 0} {
		if out[i] != want {
			t.Errorf("relu[%d] = %d, want %d", i, out[i], want)
		}
	}
}

func TestConfigOverrides(t *testing.T) {
	dev, err := NewDevice(Config{Target: Fulcrum, Ranks: 2, BanksPerRank: 16, SubarraysPerBank: 8})
	if err != nil {
		t.Fatal(err)
	}
	if got := dev.Cores(); got != 2*16*8/2 {
		t.Errorf("Cores = %d, want %d", got, 2*16*8/2)
	}
	if _, err := NewDevice(Config{Target: Target(42)}); err == nil {
		t.Error("bad target accepted")
	}
	if _, err := NewDevice(Config{Target: BitSerial, ColsPerRow: 100}); err == nil {
		t.Error("non-64-multiple cols accepted")
	}
}

func TestDefaultRanks(t *testing.T) {
	dev, err := NewDevice(Config{Target: BankLevel})
	if err != nil {
		t.Fatal(err)
	}
	if got := dev.Cores(); got != 32*128 {
		t.Errorf("default config cores = %d, want 4096 (32 ranks)", got)
	}
}

func TestReportContainsArtifactSections(t *testing.T) {
	dev := newFunctional(t, Fulcrum)
	a, _ := dev.Alloc(2048, Int32)
	b, _ := dev.AllocAssociated(a)
	dst, _ := dev.AllocAssociated(a)
	_ = CopyToDevice(dev, a, make([]int32, 2048))
	_ = CopyToDevice(dev, b, make([]int32, 2048))
	if err := dev.Add(a, b, dst); err != nil {
		t.Fatal(err)
	}
	r := dev.Report()
	for _, want := range []string{
		"PIM Params:",
		"PIM_DEVICE_FULCRUM",
		"Data Copy Stats:",
		"PIM Command Stats:",
		"add.int32",
	} {
		if !strings.Contains(r, want) {
			t.Errorf("report missing %q", want)
		}
	}
}

func TestMetricsAndOpMix(t *testing.T) {
	dev := newFunctional(t, Fulcrum)
	a, _ := dev.Alloc(512, Int32)
	b, _ := dev.AllocAssociated(a)
	dst, _ := dev.AllocAssociated(a)
	_ = CopyToDevice(dev, a, make([]int32, 512))
	_ = CopyToDevice(dev, b, make([]int32, 512))
	_ = dev.Add(a, b, dst)
	_ = dev.Add(a, b, dst)
	_ = dev.Mul(a, b, dst)
	_, _ = dev.RedSum(dst)
	dev.RecordHostKernel(1<<20, 1<<18, false)

	mix := dev.OpMix()
	if mix["add"] != 0.5 || mix["mul"] != 0.25 || mix["reduction"] != 0.25 {
		t.Errorf("OpMix = %v", mix)
	}
	m := dev.Metrics()
	if m.HostMS <= 0 || m.KernelMS <= 0 || m.TotalMS() <= m.KernelMS {
		t.Errorf("Metrics = %+v", m)
	}
	if m.IdleMJ() <= 0 {
		t.Error("IdleMJ must be positive after kernels ran")
	}
	dev.ResetStats()
	if got := dev.Metrics(); got.TotalMS() != 0 {
		t.Errorf("after reset: %+v", got)
	}
}

func TestWithRepeatThroughAPI(t *testing.T) {
	dev := newFunctional(t, BankLevel)
	a, _ := dev.Alloc(64, Int32)
	dst, _ := dev.AllocAssociated(a)
	_ = CopyToDevice(dev, a, make([]int32, 64))
	if err := dev.WithRepeat(100, func() error {
		return dev.AddScalar(a, 1, dst)
	}); err != nil {
		t.Fatal(err)
	}
	m := dev.Metrics()
	dev.ResetStats()
	_ = dev.AddScalar(a, 1, dst)
	single := dev.Metrics()
	if ratio := m.KernelMS / single.KernelMS; ratio < 99.999 || ratio > 100.001 {
		t.Errorf("repeat kernel %v, want 100x %v", m.KernelMS, single.KernelMS)
	}
}

// TestCopyToDeviceInt64PassThrough checks CopyToDevice with an []int64,
// which the device reads in place: the device truncates into its own
// storage without writing the caller's slice, and the recorded h2d payload
// is a copy that later writes to the caller's slice do not reach.
func TestCopyToDeviceInt64PassThrough(t *testing.T) {
	dev := newFunctional(t, Fulcrum)
	dev.RecordStream()
	obj, err := dev.Alloc(4, Int8)
	if err != nil {
		t.Fatal(err)
	}
	host := []int64{1, 300, -129, 127}
	orig := slices.Clone(host)
	if err := CopyToDevice(dev, obj, host); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(host, orig) {
		t.Fatalf("CopyToDevice changed the caller's slice: %v, was %v", host, orig)
	}
	got := make([]int64, len(host))
	if err := CopyFromDevice(dev, obj, got); err != nil {
		t.Fatal(err)
	}
	if want := []int64{1, 44, 127, 127}; !slices.Equal(got, want) {
		t.Fatalf("device holds %v, want %v", got, want)
	}
	for i := range host {
		host[i] = -7
	}
	var payloads int
	for _, rec := range dev.RecordedStream().Records {
		if rec.Kind == cmdstream.KindCopyH2D {
			payloads++
			if !slices.Equal(rec.Data, orig) {
				t.Errorf("recorded payload %v, want %v", rec.Data, orig)
			}
		}
	}
	if payloads != 1 {
		t.Fatalf("recorded %d h2d records, want 1", payloads)
	}
}
