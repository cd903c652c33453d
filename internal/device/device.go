// Package device implements the PIMeval simulator core behind the public
// pim package. It is organized as layers connected by the command-stream IR
// of internal/cmdstream:
//
//   - resource.go — the resource manager: PIM object table, capacity
//     accounting, and the per-core span layout of every object.
//   - dispatch.go — the staged dispatch pipeline every operation flows
//     through: validate → lower to a cmdstream record → functional backend →
//     cost model → fan-out to sinks.
//   - sink.go — the pluggable sinks fed by the pipeline: statistics, the
//     command trace, and the stream recorder behind record/replay.
//   - exec.go — the exec-command entry points and the word-level functional
//     semantics (the sharded engine of parallel.go runs the element loops).
//   - copy.go — data-movement entry points (host/device copies, host phases).
//   - replay.go — rebuilding a device from a recorded stream's header.
package device

import (
	"context"
	"errors"
	"fmt"

	"pimeval/internal/analog"
	"pimeval/internal/banklevel"
	"pimeval/internal/bitserial"
	"pimeval/internal/cmdstream"
	"pimeval/internal/dram"
	"pimeval/internal/energy"
	"pimeval/internal/fault"
	"pimeval/internal/fulcrum"
	"pimeval/internal/isa"
	"pimeval/internal/par"
	"pimeval/internal/perf"
	"pimeval/internal/stats"
)

// Target selects the simulated PIM architecture.
type Target int

// The three architectures modeled by the paper.
const (
	TargetBitSerial Target = iota // subarray-level digital bit-serial (DRAM-AP)
	TargetFulcrum                 // subarray-level bit-parallel (Fulcrum)
	TargetBankLevel               // bank-level bit-parallel
	// TargetAnalogBitSerial is the Ambit/SIMDRAM-style analog bit-serial
	// extension (paper Section IX in-progress work); it is not part of the
	// paper's three-way comparison.
	TargetAnalogBitSerial
)

var targetNames = [...]string{"bitserial", "fulcrum", "banklevel", "analog"}

// String returns the short target name.
func (t Target) String() string {
	if t >= 0 && int(t) < len(targetNames) {
		return targetNames[t]
	}
	return fmt.Sprintf("target(%d)", int(t))
}

// Valid reports whether t names a supported architecture.
func (t Target) Valid() bool { return t >= 0 && int(t) < len(targetNames) }

// ArchModel is the per-architecture cost model consumed by the simulator.
type ArchModel interface {
	// Name returns the simulation-target identifier used in reports.
	Name() string
	// Vertical reports whether data is laid out vertically (bit-serial).
	Vertical() bool
	// Cores returns the number of PIM cores the geometry provides.
	Cores(g dram.Geometry) int
	// ElemCapacityPerCore returns how many elements of the given bit width
	// fit in one core's memory under the architecture's layout.
	ElemCapacityPerCore(g dram.Geometry, bits int) int64
	// ActiveSubarraysPerCore returns how many subarrays an active core
	// holds open (for background energy).
	ActiveSubarraysPerCore() int
	// CmdCost returns the latency and energy of one command execution.
	CmdCost(cmd isa.Command, elemsPerCore int64, activeCores int, mod dram.Module, em energy.Model) perf.Cost
}

// Config describes a PIM device instance.
type Config struct {
	Target Target
	Module dram.Module
	// Functional enables data-carrying simulation: objects hold real
	// values and every command computes its result through the one
	// element kernel internal/kernels resolves for its (op, type) pair;
	// kernels.Ref* is the golden oracle those kernels are tested against.
	// With Functional off, only the performance/energy model runs, allowing
	// paper-scale inputs without materializing gigabytes.
	Functional bool
	// Workers bounds the functional engine's worker pool: 0 selects
	// runtime.NumCPU(), 1 forces the serial reference path. Results are
	// bit-identical for every setting (see parallel.go).
	Workers int
	// Faults configures the deterministic fault-injection stage
	// (internal/fault) that runs over every device memory write, plus the
	// optional SEC-DED ECC model. Nil (the default) leaves the dispatch
	// pipeline byte-identical to a fault-free build.
	Faults *fault.Config
}

// Sentinel errors returned by the resource manager and dispatcher. Every
// error leaving the device wraps exactly one of these (errors.Is matches),
// with the operation-specific detail carried in the message.
var (
	ErrOutOfMemory   = errors.New("device: PIM memory capacity exceeded")
	ErrBadObject     = errors.New("device: unknown PIM object")
	ErrShapeMismatch = errors.New("device: operand shapes or types differ")
	ErrBadArgument   = errors.New("device: invalid argument")
	// ErrFreed reports a use of an object after Free — distinct from
	// ErrBadObject (an ID never allocated) so callers can tell a
	// double-free or use-after-free bug from a corrupted handle.
	ErrFreed = errors.New("device: PIM object already freed")
	// ErrCanceled reports an operation abandoned because the context
	// installed with SetContext was canceled or its deadline passed. The
	// underlying context error is wrapped too, so errors.Is matches both.
	ErrCanceled = errors.New("device: operation canceled")
	// ErrUncorrectable re-exports the fault package's uncorrectable-ECC
	// sentinel at the device boundary.
	ErrUncorrectable = fault.ErrUncorrectable
	// ErrPanic reports a panic recovered at the dispatch boundary — the
	// device survives (its state may be partially updated), and the panic
	// value is in the message.
	ErrPanic = errors.New("device: panic during dispatch")
)

// ObjID identifies an allocated PIM data object. The zero value is invalid.
// It aliases the command-stream IR's object identifier, so *Device satisfies
// cmdstream.Executor directly.
type ObjID = cmdstream.ObjID

// Device is one simulated PIM device instance: a resource manager plus the
// staged dispatch pipeline, wired to the architecture's cost model.
type Device struct {
	cfg     Config
	arch    ArchModel
	em      energy.Model
	res     resourceManager
	pipe    pipeline
	workers int
	// pool is the device's handle on the persistent shared worker engine,
	// sized once from Config.Workers; every functional dispatch reuses it
	// instead of spawning goroutines.
	pool *par.Pool
	// ctx, when non-nil, cancels in-flight and subsequent operations
	// (SetContext). nil means "never canceled" and costs nothing.
	ctx context.Context
	// inj is the fault-injection stage, nil unless Config.Faults enables
	// at least one fault source or the ECC model.
	inj *fault.Injector
}

// New creates a PIM device for the configuration.
func New(cfg Config) (*Device, error) {
	if !cfg.Target.Valid() {
		return nil, fmt.Errorf("%w: target %d", ErrBadArgument, int(cfg.Target))
	}
	if err := cfg.Module.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Faults.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadArgument, err)
	}
	var arch ArchModel
	switch cfg.Target {
	case TargetBitSerial:
		arch = bitserial.NewModel()
	case TargetFulcrum:
		arch = fulcrum.NewModel()
	case TargetBankLevel:
		arch = banklevel.NewModel()
	case TargetAnalogBitSerial:
		arch = analog.NewModel()
	}
	pool := par.NewPool(cfg.Workers)
	d := &Device{
		cfg:     cfg,
		arch:    arch,
		em:      energy.NewModel(cfg.Module),
		workers: pool.Workers(),
		pool:    pool,
	}
	if cfg.Faults.Enabled() {
		inj, err := fault.NewInjector(*cfg.Faults, arch.Cores(cfg.Module.Geometry))
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadArgument, err)
		}
		d.inj = inj
	}
	d.res.init(arch, cfg.Module.Geometry, cfg.Functional)
	d.pipe.init(stats.New())
	return d, nil
}

// SetContext installs a cancellation context: once ctx is canceled (or its
// deadline passes), in-flight functional loops stop handing out work and
// every subsequent operation fails with an error wrapping both ErrCanceled
// and the context's error. A nil ctx removes the hook. Call between
// operations only — the device dispatcher is single-threaded.
func (d *Device) SetContext(ctx context.Context) { d.ctx = ctx }

// start is the per-dispatch cancellation check shared by every entry point.
// Inlinable fast path: devices without a context pay one nil check.
func (d *Device) start() error {
	if d.ctx == nil {
		return nil
	}
	return d.startCtx()
}

// startCtx is the out-of-line context check behind start's nil check.
func (d *Device) startCtx() error {
	if err := d.ctx.Err(); err != nil {
		return fmt.Errorf("%w: %w", ErrCanceled, err)
	}
	return nil
}

// guarded reports whether the hardened dispatch path is active: entry points
// defer panic recovery only when a resilience feature — fault injection or a
// cancellation context (even context.Background()) — is switched on. A plain
// device pays two nil checks and skips the defer, keeping the no-fault
// dispatch path at seed cost.
func (d *Device) guarded() bool { return d.inj != nil || d.ctx != nil }

// guard converts a panic escaping a dispatch entry point into an error
// wrapping ErrPanic, so one poisoned operation cannot take down a whole
// benchmark suite. Deferred with a named return at each public entry point
// when the device is guarded (see guarded).
func guard(errp *error) {
	if r := recover(); r != nil {
		*errp = fmt.Errorf("%w: %v", ErrPanic, r)
	}
}

// FaultCounts returns the accumulated fault-injection and ECC counters, or
// the zero value when fault injection is disabled.
func (d *Device) FaultCounts() fault.Counts {
	if d.inj == nil {
		return fault.Counts{}
	}
	return d.inj.Counts()
}

// Workers returns the resolved size of the functional engine's worker pool.
func (d *Device) Workers() int { return d.workers }

// Config returns the device configuration.
func (d *Device) Config() Config { return d.cfg }

// Arch returns the architecture model (for reporting).
func (d *Device) Arch() ArchModel { return d.arch }

// Stats returns the device's statistics collector.
func (d *Device) Stats() *stats.Stats { return d.pipe.stats.st }

// Cores returns the device's PIM core count.
func (d *Device) Cores() int { return d.arch.Cores(d.cfg.Module.Geometry) }

// Alloc allocates a PIM object of n elements of type dt, spread across all
// PIM cores for maximum parallelism (the paper's PIM_ALLOC_AUTO policy).
func (d *Device) Alloc(n int64, dt isa.DataType) (ObjID, error) {
	if err := d.start(); err != nil {
		return 0, err
	}
	obj, err := d.res.alloc(n, dt)
	if err != nil {
		return 0, err
	}
	d.lowerAlloc(obj)
	return obj.id, nil
}

// AllocAs allocates a PIM object under an explicit ID — the replay path for
// optimized streams, whose recorded ID sequences may have gaps where dead
// allocations were eliminated.
func (d *Device) AllocAs(id ObjID, n int64, dt isa.DataType) error {
	if err := d.start(); err != nil {
		return err
	}
	obj, err := d.res.allocAt(id, n, dt, true)
	if err != nil {
		return err
	}
	d.lowerAlloc(obj)
	return nil
}

// AllocAssociated allocates an object with the same shape and core mapping
// as ref (the paper's pimAllocAssociated), optionally with a different type.
func (d *Device) AllocAssociated(ref ObjID, dt isa.DataType) (ObjID, error) {
	r, err := d.res.lookup(ref)
	if err != nil {
		return 0, err
	}
	return d.Alloc(r.n, dt)
}

// Free releases a PIM object. Freeing an already-freed object returns
// ErrFreed.
func (d *Device) Free(id ObjID) error {
	if err := d.start(); err != nil {
		return err
	}
	if err := d.res.free(id); err != nil {
		return err
	}
	d.lowerFree(id)
	return nil
}

// Object returns the object for inspection (tests, benchmarks).
func (d *Device) Object(id ObjID) (*Object, error) { return d.res.lookup(id) }

// obj is the dispatcher's shorthand for resource-manager lookups.
func (d *Device) obj(id ObjID) (*Object, error) { return d.res.lookup(id) }

// WithRepeat runs fn with every command and host record inside it charged n
// times (loop collapsing for paper-scale iteration counts: the body executes
// functionally once, the model charges it n times). Calls may not nest.
func (d *Device) WithRepeat(n int64, fn func() error) error {
	if n <= 0 {
		return fmt.Errorf("%w: repeat %d", ErrBadArgument, n)
	}
	if d.pipe.repeat != 1 {
		return fmt.Errorf("%w: WithRepeat may not nest", ErrBadArgument)
	}
	d.pipe.repeat = n
	d.lowerRepeatBegin(n)
	defer func() {
		d.pipe.repeat = 1
		d.lowerRepeatEnd()
	}()
	return fn()
}
