package device

import (
	"bytes"
	"testing"

	"pimeval/internal/dram"
	"pimeval/internal/isa"
)

// tracedModelDevice returns a model-only device with tracing on and one
// object for traced commands to run on.
func tracedModelDevice(tb testing.TB) (*Device, ObjID) {
	tb.Helper()
	d, err := New(Config{Target: TargetFulcrum, Module: dram.DDR4(1), Workers: 1})
	if err != nil {
		tb.Fatal(err)
	}
	d.EnableTrace()
	a, err := d.Alloc(1024, isa.Int32)
	if err != nil {
		tb.Fatal(err)
	}
	return d, a
}

// TestTraceWindow runs past the retained window, far enough to recycle the
// window's backing storage, and checks that the trace holds exactly the
// newest traceLimit entries and that the snapshot of that device is
// byte-stable through a restore.
func TestTraceWindow(t *testing.T) {
	d, a := tracedModelDevice(t)
	// The alloc is untraced; every ExecBinary adds one entry.
	const extra = traceLimit + 123
	for i := 0; i < traceLimit+extra; i++ {
		if err := d.ExecBinary(isa.OpAdd, a, a, a); err != nil {
			t.Fatal(err)
		}
	}
	tr := d.Trace()
	if len(tr) != traceLimit {
		t.Fatalf("trace holds %d entries, want %d", len(tr), traceLimit)
	}
	for i, e := range tr {
		if want := int64(extra + 1 + i); e.Seq != want {
			t.Fatalf("entry %d has seq %d, want %d", i, e.Seq, want)
		}
	}
	snap := snapshotBytes(t, d, 1)
	r, _, err := RestoreSnapshot(bytes.NewReader(snap), 1)
	if err != nil {
		t.Fatalf("RestoreSnapshot: %v", err)
	}
	if got := snapshotBytes(t, r, 1); !bytes.Equal(got, snap) {
		t.Fatalf("snapshot not byte-stable past the trace window: %d vs %d bytes", len(got), len(snap))
	}
	if r.TraceString() != d.TraceString() {
		t.Fatal("restored trace differs")
	}
}

// BenchmarkTraceFull times one traced command on a model-only device whose
// trace window is already full, the steady state of a long traced run.
func BenchmarkTraceFull(b *testing.B) {
	d, a := tracedModelDevice(b)
	for i := 0; i < traceLimit; i++ {
		if err := d.ExecBinary(isa.OpAdd, a, a, a); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := d.ExecBinary(isa.OpAdd, a, a, a); err != nil {
			b.Fatal(err)
		}
	}
}
