package device

import (
	"fmt"

	"pimeval/internal/dram"
	"pimeval/internal/isa"
)

// Object is one allocated PIM data object: a 1-D array of fixed-width
// elements distributed across PIM cores.
type Object struct {
	id           ObjID
	dt           isa.DataType
	n            int64
	data         isa.Elems // n elements at dt's width; nil in model-only mode
	elemsPerCore int64
	activeCores  int
	// stale marks storage recycled from a freed object and not yet
	// zeroed: it still holds that object's bytes, which no command may
	// read. A command that writes every element first (a full h2d or
	// d2d, Broadcast, an element-wise op) clears the mark; any other
	// first access zeroes the storage (zero).
	stale bool
}

// zero zeroes stale storage before an access that reads it or writes only
// part of it, so the object reads as the zeros of fresh storage.
func (o *Object) zero() {
	if o.stale {
		o.data.Clear(0, o.n)
		o.stale = false
	}
}

// Len returns the element count.
func (o *Object) Len() int64 { return o.n }

// Type returns the element type.
func (o *Object) Type() isa.DataType { return o.dt }

// Bytes returns the object's data size in bytes.
func (o *Object) Bytes() int64 { return o.n * int64(o.dt.Bytes()) }

// resourceManager is the device's resource manager: it owns the PIM object
// table, capacity accounting, and the per-core span layout of every object.
// It is one of the two units the simulator core splits into (the other is
// the dispatch pipeline) and knows nothing about costs or sinks.
type resourceManager struct {
	arch       ArchModel
	geo        dram.Geometry
	functional bool
	objs       map[ObjID]*Object
	// freed remembers released IDs so a double-free or use-after-free is
	// reported as ErrFreed rather than the generic ErrBadObject.
	freed    map[ObjID]bool
	nextID   ObjID
	usedBits int64
	peakBits int64 // the most usedBits has been
	// spares holds the storage of freed objects for reuse by later
	// allocations of any type that fits (see storage); spareBytes is
	// their total capacity. Spare capacity plus live bytes never exceeds
	// the device's peak live bytes, and an idle device keeps its spares
	// for the next phase.
	spares     []isa.Elems
	spareBytes int64
	// spanBuf is the reusable span slice handed out by spans(). The
	// dispatcher is single-threaded and every forSpans/spansCollect batch
	// drains before the next dispatch, so one buffer per device suffices
	// and the per-command allocation disappears from the hot path.
	spanBuf []span
}

// init prepares an empty object table.
func (rm *resourceManager) init(arch ArchModel, geo dram.Geometry, functional bool) {
	rm.arch = arch
	rm.geo = geo
	rm.functional = functional
	rm.objs = make(map[ObjID]*Object)
	rm.freed = make(map[ObjID]bool)
	rm.nextID = 1
}

// alloc validates and performs one allocation: n elements of type dt spread
// across all PIM cores. Object IDs are assigned from a sequential counter,
// which makes allocation deterministic — the property command-stream replay
// relies on to resolve recorded object references. A functional device gives
// the object storage that reads as zeros (see storage).
func (rm *resourceManager) alloc(n int64, dt isa.DataType) (*Object, error) {
	obj, err := rm.place(n, dt)
	if err == nil && rm.functional {
		obj.data, obj.stale = rm.storage(n, dt)
	}
	return obj, err
}

// place validates one allocation and enters it in the object table under
// the next sequential ID, without storage.
func (rm *resourceManager) place(n int64, dt isa.DataType) (*Object, error) {
	if n <= 0 {
		return nil, fmt.Errorf("%w: element count %d", ErrBadArgument, n)
	}
	if !dt.Valid() {
		return nil, fmt.Errorf("%w: data type %d", ErrBadArgument, int(dt))
	}
	cores := int64(rm.arch.Cores(rm.geo))
	elemsPerCore := (n + cores - 1) / cores
	capPerCore := rm.arch.ElemCapacityPerCore(rm.geo, dt.Bits())
	if elemsPerCore > capPerCore {
		return nil, fmt.Errorf("%w: need %d elems/core, capacity %d", ErrOutOfMemory, elemsPerCore, capPerCore)
	}
	bits := n * int64(dt.Bits())
	if rm.usedBits+bits > rm.geo.CapacityBits() {
		return nil, fmt.Errorf("%w: %d bits requested, %d free", ErrOutOfMemory,
			bits, rm.geo.CapacityBits()-rm.usedBits)
	}
	obj := &Object{
		id:           rm.nextID,
		dt:           dt,
		n:            n,
		elemsPerCore: elemsPerCore,
		activeCores:  int((n + elemsPerCore - 1) / elemsPerCore),
	}
	rm.objs[obj.id] = obj
	rm.nextID++
	rm.usedBits += bits
	rm.peakBits = max(rm.peakBits, rm.usedBits)
	return obj, nil
}

// allocAt performs one allocation under an explicit, caller-chosen ID. It is
// the replay path for optimized streams: dead-alloc elimination leaves gaps
// in the recorded ID sequence, so surviving allocations must land on their
// recorded IDs. The sequential counter advances past the given ID to keep
// subsequent plain allocations collision-free. With withStorage false the
// object gets no storage; snapshot restore attaches storage it builds as the
// object's bytes arrive.
func (rm *resourceManager) allocAt(id ObjID, n int64, dt isa.DataType, withStorage bool) (*Object, error) {
	if id <= 0 {
		return nil, fmt.Errorf("%w: object id %d", ErrBadArgument, int64(id))
	}
	if _, ok := rm.objs[id]; ok {
		return nil, fmt.Errorf("%w: object id %d already allocated", ErrBadArgument, int64(id))
	}
	if rm.freed[id] {
		return nil, fmt.Errorf("%w: object id %d was already freed", ErrBadArgument, int64(id))
	}
	obj, err := rm.place(n, dt)
	if err != nil {
		return nil, err
	}
	if withStorage && rm.functional {
		obj.data, obj.stale = rm.storage(n, dt)
	}
	// Re-home the object from the sequential ID alloc assigned to the
	// requested one.
	delete(rm.objs, obj.id)
	obj.id = id
	rm.objs[id] = obj
	if rm.nextID <= id {
		rm.nextID = id + 1
	}
	return obj, nil
}

// free releases an object and returns its capacity. Its storage becomes a
// spare unless that would lift spare capacity plus live bytes above the
// device's peak live bytes, which a spare serving a smaller object can.
func (rm *resourceManager) free(id ObjID) error {
	o, err := rm.lookup(id)
	if err != nil {
		return err
	}
	rm.usedBits -= o.n * int64(o.dt.Bits())
	delete(rm.objs, id)
	rm.freed[id] = true
	if o.data != nil {
		if c := o.data.Capacity(); (rm.spareBytes+c)*8+rm.usedBits <= rm.peakBits {
			rm.spares = append(rm.spares, o.data)
			rm.spareBytes += c
		}
		o.data = nil
	}
	return nil
}

// storage returns storage for n elements of type dt, and whether it is
// stale. It reuses the smallest spare that holds the elements and is at
// most as large as n elements of the widest type, handed out uncleared and
// stale (Object.stale); the trace-style cycle of phases over types of
// several widths therefore runs on recycled arrays. An allocation that
// finds none drops every spare and allocates fresh zeroed storage, so spare
// capacity plus live bytes stays within the peak live bytes: a reuse moves
// at least the allocated bytes from spare to live, and after a fresh
// allocation no spares remain.
func (rm *resourceManager) storage(n int64, dt isa.DataType) (isa.Elems, bool) {
	need, most := n*int64(dt.Bytes()), n*int64(isa.Int64.Bytes())
	best := -1
	for i, s := range rm.spares {
		if c := s.Capacity(); c >= need && c <= most && (best < 0 || c < rm.spares[best].Capacity()) {
			best = i
		}
	}
	if best >= 0 {
		s := rm.spares[best]
		if e := s.Recast(dt, n); e != nil {
			last := len(rm.spares) - 1
			rm.spares[best], rm.spares[last] = rm.spares[last], nil
			rm.spares = rm.spares[:last]
			rm.spareBytes -= s.Capacity()
			return e, true
		}
	}
	rm.dropSpares()
	return dt.MakeElems(n), false
}

// dropSpares releases every spare to the garbage collector.
func (rm *resourceManager) dropSpares() {
	clear(rm.spares)
	rm.spares = rm.spares[:0]
	rm.spareBytes = 0
}

// lookup resolves an object ID, distinguishing never-allocated IDs
// (ErrBadObject) from released ones (ErrFreed).
func (rm *resourceManager) lookup(id ObjID) (*Object, error) {
	o := rm.objs[id]
	if o == nil {
		if rm.freed[id] {
			return nil, fmt.Errorf("%w: id %d", ErrFreed, int64(id))
		}
		return nil, fmt.Errorf("%w: id %d", ErrBadObject, int64(id))
	}
	return o, nil
}

// span is one dispatch task of the functional engine: a half-open element
// range covering whole per-core regions of the object being executed.
type span struct{ lo, hi int64 }

// spans partitions [0, o.n) into dispatch tasks aligned to o's per-core
// regions — the span layout is a property of how the resource manager laid
// the object out across cores. With one worker (or a small object) it
// returns the single span [0, n): the serial reference path.
func (rm *resourceManager) spans(o *Object, workers int) []span {
	n := o.n
	if workers <= 1 || n < parallelGrain {
		rm.spanBuf = append(rm.spanBuf[:0], span{0, n})
		return rm.spanBuf
	}
	epc := o.elemsPerCore
	if epc <= 0 {
		epc = n
	}
	cores := (n + epc - 1) / epc
	targetTasks := int64(workers * tasksPerWorker)
	coresPerTask := (cores + targetTasks - 1) / targetTasks
	if minCores := (parallelGrain + epc - 1) / epc; coresPerTask < minCores {
		coresPerTask = minCores
	}
	step := coresPerTask * epc
	out := rm.spanBuf[:0]
	for lo := int64(0); lo < n; lo += step {
		hi := lo + step
		if hi > n {
			hi = n
		}
		out = append(out, span{lo, hi})
	}
	rm.spanBuf = out
	return out
}
