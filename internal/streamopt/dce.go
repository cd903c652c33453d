package streamopt

import "pimeval/internal/cmdstream"

// deadCode removes stores that can never be observed. A single backward
// liveness pass suffices: because records later in the stream are decided
// first, dropping a dead consumer exposes its producers as dead in the same
// sweep. A second phase then removes alloc/free pairs of objects no
// surviving record references.
//
// The same pass serves the whole-stream optimizer and each window of the
// streaming one (a stream is its own unbounded window): an object counts as
// live unless a later free in recs proves it dead, because a record after
// the window — or a CopyDeviceToHost after replay, for objects still
// allocated at end-of-stream — may read it. On a stream that replays this
// equals seeding liveness with the objects allocated at end-of-stream:
// every object is allocated in the stream and IDs are never reused.
// Reductions, d2h copies, and host records are always kept: their effects
// escape device memory. The alloc/free sweep is sound per window because a
// lifetime wholly contained in the window cannot be referenced outside it.
func deadCode(recs []cmdstream.Record) ([]cmdstream.Record, int) {
	dead := make(map[int64]bool) // absent or false: live
	keep := make([]bool, len(recs))
	removed := 0
	for i := len(recs) - 1; i >= 0; i-- {
		rec := &recs[i]
		switch rec.Kind {
		case cmdstream.KindHost, cmdstream.KindRepeatBegin, cmdstream.KindRepeatEnd:
			keep[i] = true
			continue
		case cmdstream.KindAlloc:
			keep[i] = true // dead alloc/free pairs are swept in phase two
			continue
		case cmdstream.KindFree:
			keep[i] = true
			dead[rec.Obj] = true
			continue
		}
		uses, defs, partial := recEffects(rec)
		if removableStore(rec) && len(defs) == 1 && dead[defs[0]] {
			// Nothing reads defs[0] again before it is overwritten or
			// freed: drop the store, and do not mark its inputs live.
			removed++
			continue
		}
		keep[i] = true
		if !partial {
			for _, d := range defs {
				dead[d] = true
			}
		}
		for _, u := range uses {
			dead[u] = false
		}
	}

	// Phase two: an object whose alloc and free both survive but which no
	// kept record touches is pure lifetime noise — both records go.
	refs := make(map[int64]int)
	hasAlloc := make(map[int64]bool)
	hasFree := make(map[int64]bool)
	for i := range recs {
		if !keep[i] {
			continue
		}
		rec := &recs[i]
		switch rec.Kind {
		case cmdstream.KindAlloc:
			hasAlloc[rec.Obj] = true
			continue
		case cmdstream.KindFree:
			hasFree[rec.Obj] = true
			continue
		}
		uses, defs, _ := recEffects(rec)
		for _, u := range uses {
			refs[u]++
		}
		for _, d := range defs {
			refs[d]++
		}
	}
	out := make([]cmdstream.Record, 0, len(recs))
	for i := range recs {
		if !keep[i] {
			continue
		}
		rec := &recs[i]
		if (rec.Kind == cmdstream.KindAlloc || rec.Kind == cmdstream.KindFree) &&
			hasAlloc[rec.Obj] && hasFree[rec.Obj] && refs[rec.Obj] == 0 {
			removed++
			continue
		}
		out = append(out, *rec)
	}
	return out, removed
}
