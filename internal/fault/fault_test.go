package fault

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"pimeval/internal/isa"
)

// region builds a Region over fresh zeroed storage with a simple 4-core
// layout.
func region(dt isa.DataType, n int64) Region {
	return Region{
		Data:         dt.MakeElems(n),
		Type:         dt,
		Lo:           0,
		Hi:           n,
		ElemsPerCore: (n + 3) / 4,
		ActiveCores:  4,
	}
}

// values returns the region's elements as canonical carriers.
func values(r Region) []int64 {
	v := make([]int64, r.Data.Len())
	isa.LoadInts(r.Data, v, 0)
	return v
}

// fill stores f(j) into every element j of the region.
func fill(r Region, f func(j int) int64) {
	v := make([]int64, r.Data.Len())
	for j := range v {
		v[j] = f(j)
	}
	isa.StoreInts(r.Data, 0, v)
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{TransientBitRate: -0.1},
		{TransientBitRate: 1.5},
		{TransientBitRate: math.NaN()},
		{StuckBits: -1},
		{StuckBits: maxFaultCount + 1},
		{FailedCores: -2},
		{FailedCores: maxFaultCount + 1},
		{FirstCore: -1},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("Validate(%+v) accepted invalid config", c)
		}
	}
	for _, ok := range []Config{
		{Seed: 7, TransientBitRate: 1e-3, StuckBits: 4, FailedCores: 1, ECC: true},
		{StuckBits: maxFaultCount, FailedCores: maxFaultCount},
	} {
		if err := ok.Validate(); err != nil {
			t.Errorf("Validate(%+v): %v", ok, err)
		}
	}
	if (&Config{}).Enabled() {
		t.Error("zero config reports Enabled")
	}
	var nilCfg *Config
	if nilCfg.Enabled() || nilCfg.Validate() != nil {
		t.Error("nil config must be disabled and valid")
	}
}

// TestInjectDeterministic: the same seed and write sequence produce
// bit-identical data and counters on independent injectors.
func TestInjectDeterministic(t *testing.T) {
	cfg := Config{Seed: 99, TransientBitRate: 1e-3, StuckBits: 8}
	run := func() ([]int64, Counts) {
		in, err := NewInjector(cfg, 4)
		if err != nil {
			t.Fatal(err)
		}
		var last []int64
		for i := 0; i < 5; i++ {
			r := region(isa.Int32, 4096)
			fill(r, func(j int) int64 { return int64(int32(j * 2654435761)) })
			if _, err := in.InjectWrite(r); err != nil {
				t.Fatal(err)
			}
			last = values(r)
		}
		return last, in.Counts()
	}
	d1, c1 := run()
	d2, c2 := run()
	if !reflect.DeepEqual(d1, d2) {
		t.Error("same seed produced different injected data")
	}
	if c1 != c2 {
		t.Errorf("same seed produced different counts: %+v vs %+v", c1, c2)
	}
	if c1.TransientFlips == 0 {
		t.Error("rate 1e-3 over 5 writes of 128Kbit injected nothing")
	}
}

// TestInjectRateZeroNoFaults: a zero-rate, no-persistent-fault injector
// leaves data untouched.
func TestInjectRateZeroNoFaults(t *testing.T) {
	in, err := NewInjector(Config{Seed: 1, ECC: true}, 4)
	if err != nil {
		t.Fatal(err)
	}
	r := region(isa.Int16, 1024)
	fill(r, func(j int) int64 { return int64(int16(j)) })
	want := values(r)
	delta, err := in.InjectWrite(r)
	if err != nil {
		t.Fatal(err)
	}
	if delta.Any() {
		t.Errorf("unexpected fault counts: %+v", delta)
	}
	if !reflect.DeepEqual(values(r), want) {
		t.Error("data modified with no fault sources configured")
	}
}

// TestECCCorrectsInjectedSingles: with ECC on and a rate low enough that
// double flips per 64-bit word are rare, injected flips are corrected and
// the data stays clean.
func TestECCCorrectsInjectedSingles(t *testing.T) {
	in, err := NewInjector(Config{Seed: 5, TransientBitRate: 1e-4, ECC: true}, 4)
	if err != nil {
		t.Fatal(err)
	}
	corrected := int64(0)
	for i := 0; i < 50; i++ {
		r := region(isa.Int64, 2048)
		fill(r, func(j int) int64 { return int64(j) * 0x9e3779b9 })
		want := values(r)
		delta, err := in.InjectWrite(r)
		if err != nil {
			// A double flip in one word is possible; skip that write.
			if !errors.Is(err, ErrUncorrectable) {
				t.Fatal(err)
			}
			continue
		}
		if delta.Silent != 0 {
			t.Fatalf("write %d: silent corruption under ECC: %+v", i, delta)
		}
		if !reflect.DeepEqual(values(r), want) {
			t.Fatalf("write %d: data corrupted despite full correction", i)
		}
		corrected += delta.Corrected
	}
	if corrected == 0 {
		t.Error("no corrections over 50 writes at rate 1e-4")
	}
}

// TestNoECCSilentCorruption: without ECC every flipped word stays corrupted
// and is counted as silent.
func TestNoECCSilentCorruption(t *testing.T) {
	in, err := NewInjector(Config{Seed: 6, TransientBitRate: 1e-3}, 4)
	if err != nil {
		t.Fatal(err)
	}
	r := region(isa.Int32, 8192)
	want := values(r)
	delta, err := in.InjectWrite(r)
	if err != nil {
		t.Fatal(err)
	}
	if delta.TransientFlips == 0 || delta.Silent == 0 {
		t.Fatalf("expected silent corruption, got %+v", delta)
	}
	if reflect.DeepEqual(values(r), want) {
		t.Error("data unchanged despite injected flips")
	}
	for _, v := range values(r) {
		if v != isa.Int32.Truncate(v) {
			t.Fatalf("non-canonical value %#x after injection", v)
		}
	}
}

// TestFailedCoreECC: a write into a failed core under ECC is a detected
// uncorrectable error.
func TestFailedCoreECC(t *testing.T) {
	in, err := NewInjector(Config{Seed: 7, FailedCores: 1, ECC: true}, 4)
	if err != nil {
		t.Fatal(err)
	}
	r := region(isa.Int32, 4096)
	delta, err := in.InjectWrite(r)
	if !errors.Is(err, ErrUncorrectable) {
		t.Fatalf("want ErrUncorrectable, got %v", err)
	}
	if delta.FailedWords == 0 || delta.Detected == 0 {
		t.Errorf("failed-core counters not recorded: %+v", delta)
	}
}

// TestFailedCoreNoECC: without ECC the dead region returns deterministic
// garbage but the operation itself succeeds.
func TestFailedCoreNoECC(t *testing.T) {
	mk := func() ([]int64, Counts) {
		in, err := NewInjector(Config{Seed: 7, FailedCores: 1}, 4)
		if err != nil {
			t.Fatal(err)
		}
		r := region(isa.Int32, 4096)
		if _, err := in.InjectWrite(r); err != nil {
			t.Fatalf("no-ECC failed core must not error: %v", err)
		}
		return values(r), in.Counts()
	}
	d1, c1 := mk()
	d2, c2 := mk()
	if !reflect.DeepEqual(d1, d2) || c1 != c2 {
		t.Error("failed-core garbage not deterministic")
	}
	if c1.FailedWords == 0 || c1.Silent == 0 {
		t.Errorf("failed-core counters not recorded: %+v", c1)
	}
}

// TestScopeLimitsInjection: faults confined to a core range never touch
// elements outside that range's regions.
func TestScopeLimitsInjection(t *testing.T) {
	in, err := NewInjector(Config{
		Seed: 11, TransientBitRate: 0.01, StuckBits: 16, FirstCore: 1, NumCores: 1,
	}, 4)
	if err != nil {
		t.Fatal(err)
	}
	r := region(isa.Int32, 4096)
	want := values(r)
	if _, err := in.InjectWrite(r); err != nil {
		t.Fatal(err)
	}
	epc := r.ElemsPerCore
	changed := false
	got := values(r)
	for i := range got {
		inScope := int64(i) >= epc && int64(i) < 2*epc
		if !inScope && got[i] != want[i] {
			t.Fatalf("element %d outside scope [%d,%d) was corrupted", i, epc, 2*epc)
		}
		if inScope && got[i] != want[i] {
			changed = true
		}
	}
	if !changed {
		t.Error("1% rate injected nothing inside the scoped core")
	}
}

// TestStuckBitPersists: a stuck bit forces the same position on every
// write that disagrees with it.
func TestStuckBitPersists(t *testing.T) {
	in, err := NewInjector(Config{Seed: 3, StuckBits: 32}, 4)
	if err != nil {
		t.Fatal(err)
	}
	firstPos := map[int]bool{}
	for w := 0; w < 2; w++ {
		r := region(isa.UInt8, 1024)
		// Fresh storage is an all-zero write: stuck-at-1 bits must surface.
		if _, err := in.InjectWrite(r); err != nil {
			t.Fatal(err)
		}
		pos := map[int]bool{}
		for i, v := range values(r) {
			if v != 0 {
				pos[i] = true
			}
		}
		if len(pos) == 0 {
			t.Fatal("no stuck-at-1 bit surfaced on an all-zero write")
		}
		if w == 0 {
			firstPos = pos
		} else if !reflect.DeepEqual(pos, firstPos) {
			t.Errorf("stuck positions moved between writes: %v vs %v", firstPos, pos)
		}
	}
	if in.Counts().StuckFaults == 0 {
		t.Error("stuck faults not counted")
	}
}

// TestCountsAdd covers the accumulator.
func TestCountsAdd(t *testing.T) {
	a := Counts{TransientFlips: 1, StuckFaults: 2, FailedWords: 3, Corrected: 4, Detected: 5, Silent: 6}
	b := a
	a.Add(b)
	want := Counts{TransientFlips: 2, StuckFaults: 4, FailedWords: 6, Corrected: 8, Detected: 10, Silent: 12}
	if a != want {
		t.Errorf("Add: %+v, want %+v", a, want)
	}
	if !a.Any() || (Counts{}).Any() {
		t.Error("Any misreports")
	}
}
