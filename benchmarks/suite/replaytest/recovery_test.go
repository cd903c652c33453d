package replaytest

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	_ "pimeval/benchmarks/all" // register the benchmark suite
	"pimeval/benchmarks/suite"
	"pimeval/pim"
)

// recoveryFingerprint is the full observable state of a replayed device —
// everything that must be bit-identical between an uninterrupted replay and
// a checkpoint/restore/resume replay.
type recoveryFingerprint struct {
	metrics pim.Metrics
	report  string
	trace   string
	faults  pim.FaultStats
}

func fingerprintOf(d *pim.Device) recoveryFingerprint {
	return recoveryFingerprint{
		metrics: d.Metrics(),
		report:  d.Report(),
		trace:   d.TraceString(),
		faults:  d.FaultStats(),
	}
}

func (f recoveryFingerprint) equal(t *testing.T, label string, ref recoveryFingerprint) {
	t.Helper()
	if !metricsBitIdentical(f.metrics, ref.metrics) {
		t.Errorf("%s: metrics diverged:\n got %+v\nwant %+v", label, f.metrics, ref.metrics)
	}
	if f.report != ref.report {
		t.Errorf("%s: report diverged:\n got:\n%s\nwant:\n%s", label, f.report, ref.report)
	}
	if f.trace != ref.trace {
		t.Errorf("%s: trace diverged", label)
	}
	if !reflect.DeepEqual(f.faults, ref.faults) {
		t.Errorf("%s: fault counters diverged:\n got %+v\nwant %+v", label, f.faults, ref.faults)
	}
}

// recoveryMode crosses the recovery differential with the other replay
// modes. The zero mode replays the recorded stream serially and resumes
// from every checkpoint; the other modes pipeline the checkpointing and/or
// the resuming replay, or replay an optimized stream, and resume from the
// first, middle, and last checkpoints only.
type recoveryMode struct {
	name                           string
	ckptPipelined, resumePipelined bool
	// optimize, when any pass is set, runs every replay — reference
	// included — over pim.OptimizeSource with this pass selection.
	optimize pim.OptimizeConfig
}

// recoveryModes are the combinations run on the -short benchmarks' binary
// streams; the pipelined battery already crosses pipelining with JSON.
var recoveryModes = []recoveryMode{
	{name: "pipelined-ckpt", ckptPipelined: true},
	{name: "pipelined-resume", resumePipelined: true},
	{name: "pipelined-both", ckptPipelined: true, resumePipelined: true},
	{name: "opt-window+pipelined-ckpt", ckptPipelined: true,
		optimize: pim.OptimizeConfig{DeadCode: true, Hoist: true}},
	{name: "opt-all+pipelined-resume", resumePipelined: true,
		optimize: pim.AllPasses()},
}

// recoveryCase is the kill-at-every-checkpoint differential: record one
// benchmark, replay it uninterrupted for the reference fingerprint, replay
// it again taking a snapshot at every checkpoint boundary, then — for every
// captured snapshot, as if the process had been killed right there —
// restore and resume the tail, requiring the recovered device to be
// bit-identical to the reference on every observable. Fault injection is
// keyed by (seed, write sequence), so a restore that lost or replayed a
// single device write would shift every subsequent fault and diverge.
//
// The benchmark is recorded once; the zero mode runs on it directly and
// each of modes runs on it as a subtest.
func recoveryCase(t *testing.T, name string, target pim.Target, format pim.StreamFormat, faults *pim.FaultConfig, modes []recoveryMode) {
	t.Helper()
	b, err := suite.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	res, err := func() (res suite.Result, err error) {
		// As in the pipelined battery: corrupting faults can deterministically
		// break a benchmark's host phase before a stream is recorded — skip,
		// don't fail.
		defer func() {
			if r := recover(); r != nil {
				t.Skipf("benchmark cannot complete under this fault config: %v", r)
			}
		}()
		return b.Run(suite.Config{
			Target: target, Functional: true, Workers: 1, Record: true,
			Faults: faults,
		})
	}()
	if err != nil {
		t.Fatal(err)
	}
	if res.Stream == nil || len(res.Stream.Records) == 0 {
		t.Fatal("run recorded no stream")
	}
	var buf bytes.Buffer
	if err := res.Stream.EncodeFormat(&buf, format); err != nil {
		t.Fatal(err)
	}
	enc := buf.Bytes()

	recoveryCheck(t, enc, len(res.Stream.Records), recoveryMode{})
	for _, mode := range modes {
		mode := mode
		t.Run(mode.name, func(t *testing.T) {
			recoveryCheck(t, enc, len(res.Stream.Records), mode)
		})
	}
}

// recoveryCheck runs the differential in one mode over an encoded stream of
// records records.
func recoveryCheck(t *testing.T, enc []byte, records int, mode recoveryMode) {
	t.Helper()
	open := func() pim.StreamSource {
		t.Helper()
		src, err := pim.OpenStreamSource(bytes.NewReader(enc))
		if err != nil {
			t.Fatal(err)
		}
		if mode.optimize != (pim.OptimizeConfig{}) {
			if src, _, err = pim.OptimizeSource(src, mode.optimize); err != nil {
				t.Fatal(err)
			}
		}
		return src
	}

	// Reference: one uninterrupted replay.
	refDev, err := pim.ReplaySource(open(), pim.ReplayConfig{Workers: 1, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	ref := fingerprintOf(refDev)

	// Checkpointed replay: capture a snapshot at every checkpoint boundary.
	every := int64(records) / 4
	if every < 1 {
		every = 1
	}
	type checkpoint struct {
		cursor int64
		snap   []byte
	}
	var checkpoints []checkpoint
	ckptDev, err := pim.ReplaySource(open(), pim.ReplayConfig{
		Workers: 1, Trace: true, Pipelined: mode.ckptPipelined,
		CheckpointEvery: every,
		Checkpoint: func(cursor int64, d *pim.Device) error {
			var sb bytes.Buffer
			if err := d.WriteSnapshot(&sb, cursor); err != nil {
				return err
			}
			checkpoints = append(checkpoints, checkpoint{cursor, sb.Bytes()})
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Taking checkpoints must not perturb the replay itself.
	fingerprintOf(ckptDev).equal(t, "checkpointed replay", ref)
	if len(checkpoints) == 0 {
		t.Fatalf("no checkpoints fired (stream %d records, interval %d)",
			records, every)
	}

	// Kill at every checkpoint (the combination modes: first, middle and
	// last): restore + resume the tail, compare.
	if mode != (recoveryMode{}) && len(checkpoints) > 3 {
		n := len(checkpoints)
		checkpoints = []checkpoint{checkpoints[0], checkpoints[n/2], checkpoints[n-1]}
	}
	for _, cp := range checkpoints {
		dev, err := pim.ResumeReplaySource(bytes.NewReader(cp.snap), open(),
			pim.ReplayConfig{Workers: 1, Pipelined: mode.resumePipelined})
		if err != nil {
			t.Fatalf("resume at cursor %d: %v", cp.cursor, err)
		}
		fingerprintOf(dev).equal(t, fmt.Sprintf("resume at cursor %d", cp.cursor), ref)
	}
}

// TestRecoveryBattery crosses the kill-at-every-checkpoint differential over
// suite benchmarks x binary/JSON encodings x fault configurations (fault-
// free, ECC-corrected, corrupting) — the acceptance battery for the
// checkpoint/restore subsystem. In -short mode a representative benchmark
// per architecture runs; the whole suite otherwise. The representative
// benchmarks' binary streams additionally cross every recoveryModes
// combination (in the full run, on whichever target the rotation pairs
// them with).
func TestRecoveryBattery(t *testing.T) {
	type pair struct {
		name   string
		target pim.Target
	}
	short := []pair{
		{"vecadd", pim.BitSerial},
		{"kmeans", pim.Fulcrum},
		{"gemv", pim.BankLevel},
	}
	cases := short
	if !testing.Short() {
		cases = nil
		rot := []pim.Target{pim.BitSerial, pim.Fulcrum, pim.BankLevel}
		for i, b := range suite.All() {
			cases = append(cases, pair{b.Info().Name, rot[i%len(rot)]})
		}
	}
	for _, c := range cases {
		combos := false
		for _, sc := range short {
			combos = combos || c.name == sc.name
		}
		for _, format := range []pim.StreamFormat{pim.StreamBinary, pim.StreamJSON} {
			for _, fc := range pipelineFaultConfigs {
				c, format, fc := c, format, fc
				var modes []recoveryMode
				if combos && format == pim.StreamBinary {
					modes = recoveryModes
				}
				label := fmt.Sprintf("%s/%v/%v/%s", c.name, c.target, format, fc.name)
				t.Run(label, func(t *testing.T) {
					recoveryCase(t, c.name, c.target, format, fc.cfg, modes)
				})
			}
		}
	}
}
