// Package pim is the public programming interface of the PIMeval simulator:
// a Go rendition of the paper's high-level PIM API (Section V-B).
//
// A program creates a Device for one of the three modeled architectures,
// allocates PIM data objects, copies data in, issues PIM commands, reads
// results and statistics back, and frees the objects:
//
//	dev, _ := pim.NewDevice(pim.Config{Target: pim.Fulcrum, Ranks: 32, Functional: true})
//	x, _ := dev.Alloc(n, pim.Int32)
//	y, _ := dev.AllocAssociated(x)
//	_ = pim.CopyToDevice(dev, x, xs)
//	_ = pim.CopyToDevice(dev, y, ys)
//	_ = dev.ScaledAdd(x, y, y, a) // y = a*x + y
//	_ = pim.CopyFromDevice(dev, y, ys)
//	dev.Free(x); dev.Free(y)
//
// The same program runs unmodified on every architecture; only the Config
// target changes — that portability is the paper's central API claim.
package pim

import (
	"context"
	"io"

	"pimeval/internal/device"
	"pimeval/internal/dram"
	"pimeval/internal/fault"
	"pimeval/internal/hostmodel"
	"pimeval/internal/isa"
)

// Sentinel errors of the PIM API. Every error returned by a Device wraps
// exactly one of these; match with errors.Is. ErrCanceled additionally wraps
// the context's own error (context.Canceled or context.DeadlineExceeded).
var (
	ErrOutOfMemory   = device.ErrOutOfMemory   // PIM memory capacity exceeded
	ErrBadObject     = device.ErrBadObject     // unknown object handle
	ErrFreed         = device.ErrFreed         // double-free or use-after-free
	ErrTypeMismatch  = device.ErrShapeMismatch // operand shapes or types differ
	ErrBadArgument   = device.ErrBadArgument   // invalid argument
	ErrCanceled      = device.ErrCanceled      // context canceled or deadline passed
	ErrUncorrectable = device.ErrUncorrectable // detected uncorrectable memory error (ECC)
	ErrPanic         = device.ErrPanic         // panic recovered at the dispatch boundary
)

// FaultConfig configures the deterministic fault-injection subsystem
// (Config.Faults). See internal/fault for the field semantics; the zero
// value injects nothing.
type FaultConfig = fault.Config

// FaultStats are the accumulated fault-injection and ECC counters.
type FaultStats = fault.Counts

// Target selects the simulated PIM architecture.
type Target = device.Target

// The three PIM architectures compared in the paper.
const (
	BitSerial = device.TargetBitSerial // subarray-level digital bit-serial (DRAM-AP)
	Fulcrum   = device.TargetFulcrum   // subarray-level bit-parallel
	BankLevel = device.TargetBankLevel // bank-level bit-parallel
	// AnalogBitSerial is the Ambit/SIMDRAM-style analog extension
	// (triple-row-activation MAJ computing); excluded from AllTargets
	// since the paper's figures compare the three digital designs.
	AnalogBitSerial = device.TargetAnalogBitSerial
)

// AllTargets lists the three architectures in paper order.
var AllTargets = []Target{BitSerial, Fulcrum, BankLevel}

// DataType identifies a PIM element type.
type DataType = isa.DataType

// Supported element types.
const (
	Int8   = isa.Int8
	Int16  = isa.Int16
	Int32  = isa.Int32
	Int64  = isa.Int64
	UInt8  = isa.UInt8
	UInt16 = isa.UInt16
	UInt32 = isa.UInt32
	UInt64 = isa.UInt64
)

// ObjID identifies an allocated PIM data object.
type ObjID = device.ObjID

// Memory selects the DRAM technology of the simulated module.
type Memory int

// Supported memory technologies. HBM2 is the paper's future-work direction
// (Sections III and IX); Ranks counts pseudo-channels for it.
const (
	MemDDR4 Memory = iota
	MemHBM2
)

// Config describes the device to simulate. Zero-valued geometry fields take
// the paper's defaults (Table II: 128 banks/rank, 32 subarrays/bank,
// 1024x8192 subarrays, 128-bit GDL, 25.6 GB/s per rank).
type Config struct {
	Target Target
	// Memory selects DDR4 (default, the paper's configuration) or HBM2.
	Memory Memory
	// Ranks is the number of DRAM ranks (defaults to 32, the paper's main
	// configuration). For HBM2 it counts pseudo-channels.
	Ranks int
	// Geometry overrides for sensitivity studies (Figure 6); zero = default.
	BanksPerRank     int
	SubarraysPerBank int
	RowsPerSubarray  int
	ColsPerRow       int
	GDLWidthBits     int
	// Functional enables data-carrying simulation: every command computes
	// its result with one resolved element kernel per command. Leave false
	// for paper-scale model-only runs.
	Functional bool
	// Workers bounds the worker pool of the functional execution engine,
	// which shards every command across the object's per-core element
	// regions. 0 (the default) selects runtime.NumCPU(); 1 forces the
	// serial reference path. Outputs, statistics, latency, and energy are
	// bit-identical for every setting — the knob trades wall-clock time
	// only. Model-only runs ignore it.
	Workers int
	// Faults enables the seed-driven fault-injection stage and optional
	// SEC-DED ECC model for resilience studies. A fixed Seed reproduces
	// identical faults regardless of Workers; nil (the default) leaves the
	// pipeline byte-identical to a fault-free run.
	Faults *FaultConfig
}

// module materializes the dram description for the config.
func (c Config) module() dram.Module {
	ranks := c.Ranks
	if ranks == 0 {
		ranks = 32
	}
	m := dram.DDR4(ranks)
	if c.Memory == MemHBM2 {
		m = dram.HBM2(ranks)
	}
	if c.BanksPerRank > 0 {
		m.Geometry.BanksPerRank = c.BanksPerRank
	}
	if c.SubarraysPerBank > 0 {
		m.Geometry.SubarraysPerBank = c.SubarraysPerBank
	}
	if c.RowsPerSubarray > 0 {
		m.Geometry.RowsPerSubarray = c.RowsPerSubarray
	}
	if c.ColsPerRow > 0 {
		m.Geometry.ColsPerRow = c.ColsPerRow
	}
	if c.GDLWidthBits > 0 {
		m.Geometry.GDLWidthBits = c.GDLWidthBits
	}
	return m
}

// Device is a simulated PIM device. All configuration-derived accessors read
// from the underlying device's config, so a device reconstructed from a
// recorded command stream (Replay) reports identically to the live original.
type Device struct {
	d *device.Device
}

// NewDevice creates a PIM device for the configuration.
func NewDevice(cfg Config) (*Device, error) {
	d, err := device.New(device.Config{
		Target:     cfg.Target,
		Module:     cfg.module(),
		Functional: cfg.Functional,
		Workers:    cfg.Workers,
		Faults:     cfg.Faults,
	})
	if err != nil {
		return nil, err
	}
	return &Device{d: d}, nil
}

// Target returns the device's architecture.
func (v *Device) Target() Target { return v.d.Config().Target }

// Cores returns the device's PIM core count.
func (v *Device) Cores() int { return v.d.Cores() }

// Workers returns the resolved size of the functional engine's worker pool
// (Config.Workers with 0 resolved to runtime.NumCPU()).
func (v *Device) Workers() int { return v.d.Workers() }

// Functional reports whether the device carries real data.
func (v *Device) Functional() bool { return v.d.Config().Functional }

// SetContext installs a cancellation context on the device: once ctx is
// canceled or its deadline passes, in-flight functional loops stop early and
// every subsequent operation fails with an error matching both ErrCanceled
// and ctx.Err(). Pass nil to remove the hook. The device dispatcher is
// single-threaded — call between operations, not concurrently with one.
func (v *Device) SetContext(ctx context.Context) { v.d.SetContext(ctx) }

// FaultStats returns the accumulated fault-injection and ECC counters (zero
// when Config.Faults is nil).
func (v *Device) FaultStats() FaultStats { return v.d.Stats().Faults() }

// Alloc allocates a PIM object of n elements (the paper's pimAlloc with
// PIM_ALLOC_AUTO).
func (v *Device) Alloc(n int64, dt DataType) (ObjID, error) { return v.d.Alloc(n, dt) }

// AllocAssociated allocates an object shaped like ref (pimAllocAssociated).
func (v *Device) AllocAssociated(ref ObjID) (ObjID, error) {
	o, err := v.d.Object(ref)
	if err != nil {
		return 0, err
	}
	return v.d.AllocAssociated(ref, o.Type())
}

// AllocAssociatedTyped allocates an object shaped like ref with a different
// element type.
func (v *Device) AllocAssociatedTyped(ref ObjID, dt DataType) (ObjID, error) {
	return v.d.AllocAssociated(ref, dt)
}

// Free releases an object (pimFree).
func (v *Device) Free(id ObjID) error { return v.d.Free(id) }

// Len returns the element count of an object.
func (v *Device) Len(id ObjID) (int64, error) {
	o, err := v.d.Object(id)
	if err != nil {
		return 0, err
	}
	return o.Len(), nil
}

// Integer is the constraint for host slices exchanged with PIM objects.
type Integer = isa.Integer

// CopyToDevice copies a host slice into a PIM object
// (pimCopyHostToDevice), converting each element straight into the
// object's storage at its element type; a value wider than the type keeps
// its low bits. In model-only mode pass nil to charge the transfer without
// materializing data.
func CopyToDevice[T Integer](v *Device, id ObjID, data []T) error {
	return device.CopyIn(v.d, id, data)
}

// CopyFromDevice copies a PIM object back into the host slice
// (pimCopyDeviceToHost), converting each element straight into dst. dst
// must have the object's length. In model-only mode the transfer is
// charged and dst is left untouched.
func CopyFromDevice[T Integer](v *Device, id ObjID, dst []T) error {
	_, err := device.CopyOut(v.d, id, dst, false)
	return err
}

// CopyDeviceToDevice copies (or tiles, when dst is an exact multiple larger)
// one object into another. Layout-changing device-to-device traffic is
// charged as data movement at rank bandwidth.
func (v *Device) CopyDeviceToDevice(src, dst ObjID) error {
	return v.d.CopyDeviceToDevice(src, dst)
}

// CopyDeviceToDeviceRange copies n elements from src[srcOff:] into
// dst[dstOff:] — the gather primitive for assembling batches from resident
// data (e.g. adjacency rows).
func (v *Device) CopyDeviceToDeviceRange(src ObjID, srcOff int64, dst ObjID, dstOff, n int64) error {
	return v.d.CopyDeviceToDeviceRange(src, srcOff, dst, dstOff, n)
}

// WithRepeat charges every command issued inside fn n times while executing
// it functionally once — the loop-collapsing device used to run paper-scale
// iteration counts (see DESIGN.md).
func (v *Device) WithRepeat(n int64, fn func() error) error { return v.d.WithRepeat(n, fn) }

// RecordHostKernel models a host-CPU-executed phase (PIM + Host benchmarks)
// with the paper's CPU baseline roofline: bytes of traffic, ops of scalar
// compute, and whether the access pattern is random. The modeled time and
// TDP energy are charged to the device's host statistics.
func (v *Device) RecordHostKernel(bytes, ops int64, random bool) {
	v.d.RecordHost(hostmodel.CPU().Cost(hostmodel.Kernel{Bytes: bytes, Ops: ops, Random: random}))
}

// Metrics is the public statistics snapshot.
type Metrics struct {
	KernelMS float64 // PIM kernel time
	HostMS   float64 // host-executed phase time
	CopyMS   float64 // host<->device transfer time
	KernelMJ float64 // PIM kernel energy
	HostMJ   float64 // host phase energy (TDP-based)
	CopyMJ   float64 // transfer energy

	HostToDeviceBytes   int64
	DeviceToHostBytes   int64
	DeviceToDeviceBytes int64
}

// TotalMS returns end-to-end modeled time.
func (m Metrics) TotalMS() float64 { return m.KernelMS + m.HostMS + m.CopyMS }

// TotalMJ returns end-to-end modeled energy, excluding host idle energy.
func (m Metrics) TotalMJ() float64 { return m.KernelMJ + m.HostMJ + m.CopyMJ }

// IdleMJ returns the host idle energy burned while waiting for PIM kernels
// (10 W during kernel time, paper Section V-D iii).
func (m Metrics) IdleMJ() float64 {
	return hostmodel.IdleEnergyPJ(m.KernelMS*1e6) * 1e-9
}

// Metrics returns the device's accumulated statistics.
func (v *Device) Metrics() Metrics {
	b := v.d.Stats().Breakdown()
	c := v.d.Stats().Copies()
	return Metrics{
		KernelMS:            b.Kernel.TimeMS(),
		HostMS:              b.Host.TimeMS(),
		CopyMS:              b.Copy.TimeMS(),
		KernelMJ:            b.Kernel.EnergyMJ(),
		HostMJ:              b.Host.EnergyMJ(),
		CopyMJ:              b.Copy.EnergyMJ(),
		HostToDeviceBytes:   c.HostToDeviceBytes,
		DeviceToHostBytes:   c.DeviceToHostBytes,
		DeviceToDeviceBytes: c.DeviceToDeviceBytes,
	}
}

// OpMix returns the Figure-8 operation-category frequencies (fractions).
func (v *Device) OpMix() map[string]float64 { return v.d.Stats().OpMix() }

// WriteCommandCSV emits the accumulated per-command statistics as CSV
// (command, count, runtime_ms, energy_mj).
func (v *Device) WriteCommandCSV(w io.Writer) error { return v.d.Stats().WriteCSV(w) }

// EnableTrace starts recording every dispatched command and copy; the
// trace retains the most recent 64Ki entries. Retrieve with TraceString.
func (v *Device) EnableTrace() { v.d.EnableTrace() }

// TraceString renders the recorded command trace.
func (v *Device) TraceString() string { return v.d.TraceString() }

// ResetStats clears the device's accumulated statistics.
func (v *Device) ResetStats() { v.d.Stats().Reset() }

// Report renders the artifact-style statistics report (Listing 3). The
// rendering lives on the internal device (ParamsHeader/ReportString) so
// every consumer — this API, the tools, the stream-execution server —
// produces byte-identical reports for the same device state.
func (v *Device) Report() string { return v.d.ReportString() }
