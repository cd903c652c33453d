// Command pimasm disassembles the microprogram a high-level PIM operation
// compiles to — for the digital bit-serial (DRAM-AP) or analog (TRA)
// architecture — and prints its micro-op composition and modeled per-batch
// cost. It is the inspection tool for the two microprogram compilers.
//
//	pimasm -op add -type int32
//	pimasm -op mul -type int16 -arch analog -counts
//
// It also drives the simulator's command-stream IR: -record runs the op
// through the full device dispatch pipeline and writes the lowered command
// stream to a file; -replay re-executes a recorded stream on a fresh device
// and prints the artifact-style report.
//
//	pimasm -op mul -type int16 -target fulcrum -n 8192 -record mul.stream
//	pimasm -replay mul.stream
//
// The -opt flag runs the stream optimizer (internal/streamopt, all passes)
// on the command stream — before writing for -record, or after decoding for
// -replay — and prints the per-pass summary; the optimized stream replays
// to bit-identical data at equal or lower simulated cost.
//
//	pimasm -op add -target fulcrum -record add.stream -opt
//	pimasm -replay add.stream -opt
//
// A -record run can carry the fault-injection stage (-faults, -fault-seed,
// -ecc): the fault configuration is serialized in the stream header, so a
// later -replay reproduces the exact same injected faults bit for bit.
package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"time"

	"pimeval/internal/analog"
	"pimeval/internal/bitserial"
	"pimeval/internal/cmdstream"
	"pimeval/internal/dram"
	"pimeval/internal/isa"
	"pimeval/internal/par"
	"pimeval/internal/prof"
	"pimeval/pim"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "pimasm:", err)
		os.Exit(1)
	}
}

var opsByName = map[string]isa.Op{
	"add": isa.OpAdd, "sub": isa.OpSub, "mul": isa.OpMul, "div": isa.OpDiv,
	"and": isa.OpAnd, "or": isa.OpOr, "xor": isa.OpXor, "xnor": isa.OpXnor,
	"not": isa.OpNot, "shl": isa.OpShiftL, "shr": isa.OpShiftR,
	"min": isa.OpMin, "max": isa.OpMax, "lt": isa.OpLt, "gt": isa.OpGt,
	"eq": isa.OpEq, "abs": isa.OpAbs, "popcount": isa.OpPopCount,
	"select": isa.OpSelect, "broadcast": isa.OpBroadcast,
}

var typesByName = map[string]isa.DataType{
	"int8": isa.Int8, "int16": isa.Int16, "int32": isa.Int32, "int64": isa.Int64,
	"uint8": isa.UInt8, "uint16": isa.UInt16, "uint32": isa.UInt32, "uint64": isa.UInt64,
}

var targetsByName = map[string]pim.Target{
	"bitserial": pim.BitSerial, "fulcrum": pim.Fulcrum,
	"banklevel": pim.BankLevel, "analog": pim.AnalogBitSerial,
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("pimasm", flag.ContinueOnError)
	fs.SetOutput(out)
	var (
		opName     = fs.String("op", "add", "operation to compile")
		typeName   = fs.String("type", "int32", "element type")
		arch       = fs.String("arch", "bitserial", "microprogram compiler: bitserial or analog")
		imm        = fs.Int64("imm", 1, "immediate for shift/broadcast")
		onlyCounts = fs.Bool("counts", false, "print the composition summary only")
		limit      = fs.Int("limit", 64, "maximum micro-ops to list (0 = all)")
		runN       = fs.Int("run", 0, "functionally interpret the program over N random elements and report throughput (bitserial only)")
		workers    = fs.Int("workers", 0, "worker pool for -run interpreter batches (0 = NumCPU, 1 = serial)")
		recordPath = fs.String("record", "", "run the op through the device dispatch pipeline and write the recorded command stream to this file")
		replayPath = fs.String("replay", "", "replay a recorded command stream from this file and print the device report")
		targetName = fs.String("target", "bitserial", "device architecture for -record: bitserial, fulcrum, banklevel, analog")
		recordN    = fs.Int64("n", 4096, "element count for -record")
		faultRate  = fs.Float64("faults", 0, "transient bit-flip probability per written bit for -record (serialized into the stream header)")
		faultSeed  = fs.Int64("fault-seed", 1, "seed driving every fault decision (fixed seed = reproducible faults)")
		ecc        = fs.Bool("ecc", false, "enable the SEC-DED (72,64) ECC model for -record")
		optimize   = fs.Bool("opt", false, "run the stream optimizer (all passes) on the command stream before writing (-record) or replaying (-replay)")
		formatName = fs.String("format", "json", "stream encoding for -record: json or bin (replay auto-detects)")
		pipeline   = fs.Bool("pipeline", false, "for -replay: decode on a pipeline stage overlapping I/O with execution (bit-identical results)")
		cpuProfile = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = fs.String("memprofile", "", "write a heap profile to this file on exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	stopProf, err := prof.Start(*cpuProfile, *memProfile)
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProf(); perr != nil {
			fmt.Fprintln(os.Stderr, "pimasm:", perr)
		}
	}()
	format, ferr := pim.ParseStreamFormat(*formatName)
	if ferr != nil {
		return ferr
	}
	var fcfg *pim.FaultConfig
	if *faultRate > 0 || *ecc {
		fcfg = &pim.FaultConfig{Seed: *faultSeed, TransientBitRate: *faultRate, ECC: *ecc}
	}
	if *replayPath != "" {
		return replayStream(out, *replayPath, *workers, *optimize, *pipeline)
	}
	op, ok := opsByName[*opName]
	if !ok {
		return fmt.Errorf("unknown op %q", *opName)
	}
	dt, ok := typesByName[*typeName]
	if !ok {
		return fmt.Errorf("unknown type %q", *typeName)
	}
	if *recordPath != "" {
		target, ok := targetsByName[*targetName]
		if !ok {
			return fmt.Errorf("unknown target %q", *targetName)
		}
		return recordStream(out, *recordPath, format, target, op, dt, *imm, *recordN, *workers, fcfg, *optimize)
	}

	t := dram.DDR4(1).Timing
	switch *arch {
	case "bitserial":
		p, err := bitserial.BuildCached(op, dt, *imm)
		if err != nil {
			return err
		}
		c := p.Counts()
		fmt.Fprintf(out, "%s.%s (digital DRAM-AP): %d micro-ops over %d bit planes, dest at plane %d\n",
			op, dt, c.Total(), p.Rows, p.DstBase)
		fmt.Fprintf(out, "  composition: %d row reads, %d row writes, %d logic, %d reg moves\n",
			c.Reads, c.Writes, c.Logic, c.Moves)
		perBatchNS := float64(c.Reads)*t.RowReadNS + float64(c.Writes)*t.RowWriteNS +
			float64(c.Logic+c.Moves)*t.TCCDNS
		fmt.Fprintf(out, "  per-batch latency: %.1f ns (%d elements per subarray batch)\n",
			perBatchNS, dram.DDR4(1).Geometry.ColsPerRow)
		if !*onlyCounts {
			for i, mo := range p.Ops {
				if *limit > 0 && i >= *limit {
					fmt.Fprintf(out, "  ... %d more\n", len(p.Ops)-i)
					break
				}
				fmt.Fprintf(out, "  %4d: %s\n", i, formatDigital(mo))
			}
		}
		if *runN > 0 {
			if err := interpret(out, p, op, dt, *runN, *workers); err != nil {
				return err
			}
		}
	case "analog":
		p, err := analog.Build(op, dt, *imm)
		if err != nil {
			return err
		}
		c := p.Counts()
		fmt.Fprintf(out, "%s.%s (analog TRA): %d micro-ops over %d bit planes, dest at plane %d\n",
			op, dt, c.Total(), p.Rows, p.DstBase)
		fmt.Fprintf(out, "  composition: %d AAP copies, %d NOT copies, %d TRAs, %d sets\n",
			c.AAPs, c.Nots, c.TRAs, c.Sets)
		if *onlyCounts {
			return nil
		}
		for i, mo := range p.Ops {
			if *limit > 0 && i >= *limit {
				fmt.Fprintf(out, "  ... %d more\n", len(p.Ops)-i)
				break
			}
			fmt.Fprintf(out, "  %4d: %s\n", i, formatAnalog(mo))
		}
	default:
		return fmt.Errorf("unknown arch %q (want bitserial or analog)", *arch)
	}
	return nil
}

// binaryFns maps element-wise binary ops to their pim API entry points.
var binaryFns = map[isa.Op]func(*pim.Device, pim.ObjID, pim.ObjID, pim.ObjID) error{
	isa.OpAdd: (*pim.Device).Add, isa.OpSub: (*pim.Device).Sub,
	isa.OpMul: (*pim.Device).Mul, isa.OpDiv: (*pim.Device).Div,
	isa.OpAnd: (*pim.Device).And, isa.OpOr: (*pim.Device).Or,
	isa.OpXor: (*pim.Device).Xor, isa.OpXnor: (*pim.Device).Xnor,
	isa.OpMin: (*pim.Device).Min, isa.OpMax: (*pim.Device).Max,
	isa.OpLt: (*pim.Device).Lt, isa.OpGt: (*pim.Device).Gt,
	isa.OpEq: (*pim.Device).Eq,
}

// unaryFns maps one-input ops to their pim API entry points.
var unaryFns = map[isa.Op]func(*pim.Device, pim.ObjID, pim.ObjID) error{
	isa.OpNot: (*pim.Device).Not, isa.OpAbs: (*pim.Device).Abs,
	isa.OpPopCount: (*pim.Device).PopCount,
}

// recordStream runs the op through the full device API on a one-rank
// functional device with the command-stream recorder attached, and writes
// the captured stream to path. Without -opt the stream is encoded to the
// file as operations dispatch (the streaming recording path); with -opt it
// is captured in memory, optimized, and then encoded.
func recordStream(out io.Writer, path string, format pim.StreamFormat, target pim.Target, op isa.Op, dt isa.DataType, imm, n int64, workers int, faults *pim.FaultConfig, optimize bool) error {
	dev, err := pim.NewDevice(pim.Config{
		Target: target, Ranks: 1, Functional: true, Workers: workers,
		Faults: faults,
	})
	if err != nil {
		return err
	}
	dev.RecordStream()
	var streamFile *os.File
	if !optimize {
		if streamFile, err = os.Create(path); err != nil {
			return err
		}
		if err := dev.RecordStreamTo(streamFile, format); err != nil {
			streamFile.Close()
			return err
		}
	}
	rng := rand.New(rand.NewSource(1))
	operands := make([]pim.ObjID, operandCount(op))
	for k := range operands {
		id, err := dev.Alloc(n, dt)
		if err != nil {
			return err
		}
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = dt.Truncate(rng.Int63())
		}
		if op == isa.OpSelect && k == 0 {
			for i := range vals {
				vals[i] &= 1 // the mask operand carries 0/1 truth values
			}
		}
		if err := pim.CopyToDevice(dev, id, vals); err != nil {
			return err
		}
		operands[k] = id
	}
	dst, err := dev.Alloc(n, dt)
	if err != nil {
		return err
	}
	switch {
	case binaryFns[op] != nil:
		err = binaryFns[op](dev, operands[0], operands[1], dst)
	case unaryFns[op] != nil:
		err = unaryFns[op](dev, operands[0], dst)
	case op == isa.OpShiftL:
		err = dev.ShiftL(operands[0], int(imm), dst)
	case op == isa.OpShiftR:
		err = dev.ShiftR(operands[0], int(imm), dst)
	case op == isa.OpSelect:
		err = dev.Select(operands[0], operands[1], operands[2], dst)
	case op == isa.OpBroadcast:
		err = dev.Broadcast(dst, imm)
	default:
		err = fmt.Errorf("op %v has no device dispatch form", op)
	}
	if err != nil {
		return err
	}
	if err := pim.CopyFromDevice(dev, dst, make([]int64, n)); err != nil {
		return err
	}
	s := dev.RecordedStream()
	if optimize {
		if s, err = optimizeStream(out, s); err != nil {
			return err
		}
	}
	if streamFile != nil {
		// The streaming path already wrote every record; flush and close.
		err := dev.FinishRecording()
		if cerr := streamFile.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	} else {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := s.EncodeFormat(f, format); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	fmt.Fprintf(out, "recorded %d stream records to %s (%s, %s, %s.%s, n=%d)\n",
		len(s.Records), path, format, target, op, dt, n)
	return nil
}

// replayStream replays a recorded command stream (JSON or binary,
// auto-detected) on a fresh device built from the stream's header, and
// prints the device report. Without -opt the stream is replayed record by
// record as it decodes (bounded memory, whatever the stream size); with
// -opt it is materialized, optimized, and then replayed.
func replayStream(out io.Writer, path string, workers int, optimize, pipeline bool) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	var dev *pim.Device
	var replayed int
	if optimize {
		s, err := pim.DecodeStream(f)
		if err != nil {
			return err
		}
		if s, err = optimizeStream(out, s); err != nil {
			return err
		}
		if dev, err = pim.Replay(s, pim.ReplayConfig{Workers: workers}); err != nil {
			return err
		}
		replayed = len(s.Records)
	} else {
		src, err := pim.OpenStreamSource(f)
		if err != nil {
			return err
		}
		cs := &cmdstream.CountingSource{Source: src}
		if dev, err = pim.ReplaySource(cs, pim.ReplayConfig{Workers: workers, Pipelined: pipeline}); err != nil {
			return err
		}
		replayed = int(cs.N)
	}
	fmt.Fprintf(out, "replayed %d stream records on %s\n", replayed, dev.Target())
	if fc := dev.FaultStats(); fc.Any() {
		fmt.Fprintf(out, "reproduced faults: %d transient flips, %d stuck-at, %d failed-core words (%d corrected, %d detected, %d silent)\n",
			fc.TransientFlips, fc.StuckFaults, fc.FailedWords, fc.Corrected, fc.Detected, fc.Silent)
	}
	fmt.Fprintln(out, dev.Report())
	return nil
}

// optimizeStream runs the all-passes stream optimizer and prints its
// per-pass summary.
func optimizeStream(out io.Writer, s *pim.Stream) (*pim.Stream, error) {
	opt, res, err := pim.Optimize(s)
	if err != nil {
		return nil, err
	}
	if res.Skipped != "" {
		fmt.Fprintf(out, "optimizer skipped: %s\n", res.Skipped)
		return opt, nil
	}
	fmt.Fprintf(out, "optimized %d -> %d records (%d eliminated, %d hoisted, %d moved, %d fused)\n",
		len(s.Records), len(opt.Records), res.Eliminated, res.Hoisted, res.Moved, res.Fused)
	return opt, nil
}

// operandCount returns how many memory-resident operand regions op's
// microprogram expects (the builder layout convention in programs.go).
func operandCount(op isa.Op) int {
	switch op {
	case isa.OpNot, isa.OpAbs, isa.OpShiftL, isa.OpShiftR, isa.OpPopCount:
		return 1
	case isa.OpSelect:
		return 3
	case isa.OpBroadcast:
		return 0
	default:
		return 2
	}
}

// interpret runs the compiled microprogram functionally over n random
// elements, dispatching row-buffer-wide batches across the worker pool, and
// reports the interpreter's wall-clock throughput.
func interpret(out io.Writer, p *bitserial.Program, op isa.Op, dt isa.DataType, n, workers int) error {
	rng := rand.New(rand.NewSource(1))
	ops := make([][]int64, operandCount(op))
	for k := range ops {
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = dt.Truncate(rng.Int63())
		}
		if op == isa.OpSelect && k == 0 {
			for i := range vals {
				vals[i] &= 1 // the mask operand carries 0/1 truth values
			}
		}
		ops[k] = vals
	}
	start := time.Now()
	if _, err := bitserial.EvalElements(p, dt.Bits(), n, ops, workers); err != nil {
		return err
	}
	elapsed := time.Since(start)
	fmt.Fprintf(out, "  interpreted %d elements in %v (%.0f elem/s, %d workers)\n",
		n, elapsed.Round(time.Microsecond), float64(n)/elapsed.Seconds(), par.Resolve(workers))
	return nil
}

func formatDigital(mo bitserial.MicroOp) string {
	switch mo.Kind {
	case bitserial.KRead:
		return fmt.Sprintf("read  row[%d] -> rsa", mo.Row)
	case bitserial.KWrite:
		return fmt.Sprintf("write rsa -> row[%d]", mo.Row)
	case bitserial.KSet:
		v := 0
		if mo.Val {
			v = 1
		}
		return fmt.Sprintf("set   %v <- %d", mo.Dst, v)
	case bitserial.KMove:
		return fmt.Sprintf("move  %v <- %v", mo.Dst, mo.A)
	case bitserial.KAnd:
		return fmt.Sprintf("and   %v <- %v & %v", mo.Dst, mo.A, mo.B)
	case bitserial.KXnor:
		return fmt.Sprintf("xnor  %v <- ~(%v ^ %v)", mo.Dst, mo.A, mo.B)
	case bitserial.KSel:
		return fmt.Sprintf("sel   %v <- %v ? %v : %v", mo.Dst, mo.C, mo.A, mo.B)
	}
	return "?"
}

func formatAnalog(mo analog.MicroOp) string {
	row := func(r int32) string {
		if r >= 0 {
			return fmt.Sprintf("row[%d]", r)
		}
		return [...]string{"T0", "T1", "T2", "S0", "S1", "S2"}[-1-r]
	}
	switch mo.Kind {
	case analog.KAAP:
		return fmt.Sprintf("aap   %s -> %s", row(mo.Src), row(mo.Dst))
	case analog.KNot:
		return fmt.Sprintf("not   %s -> %s (dual-contact)", row(mo.Src), row(mo.Dst))
	case analog.KTRA:
		return "tra   T0,T1,T2 <- MAJ(T0,T1,T2)"
	case analog.KSet:
		v := 0
		if mo.Val {
			v = 1
		}
		return fmt.Sprintf("set   %s <- %d", row(mo.Dst), v)
	}
	return "?"
}
