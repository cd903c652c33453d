package streamopt

import (
	"bytes"
	"io"
	"maps"
	"reflect"
	"slices"
	"testing"

	"pimeval/internal/cmdstream"
	"pimeval/internal/device"
	"pimeval/internal/fault"
	"pimeval/internal/perf"
)

// drain collects a Source into a slice plus its (possibly re-stamped)
// header.
func drain(t *testing.T, src cmdstream.Source) (cmdstream.Header, []cmdstream.Record) {
	t.Helper()
	var recs []cmdstream.Record
	for {
		rec, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		if err := cmdstream.Materialize(src, rec); err != nil {
			t.Fatal(err)
		}
		recs = append(recs, *rec)
	}
	if err := src.Close(); err != nil {
		t.Fatal(err)
	}
	return src.Header(), recs
}

// windowStream builds a replayable stream of blocks that give every pass
// work: a dead store, a schedulable trio whose reordering makes a fusable
// pair adjacent, and a hoistable invariant inside a repeat scope. Two
// objects per block stay live at end of stream as observable outputs.
// Replicated, the blocks span several optimizer windows.
func windowStream(blocks int) *cmdstream.Stream {
	h := header()
	h.Target, h.TargetID = device.TargetFulcrum.String(), int(device.TargetFulcrum)
	s := &cmdstream.Stream{Header: h}
	base := int64(0)
	for b := 0; b < blocks; b++ {
		o := func(i int64) int64 { return base + i }
		in1, in2 := h2d(o(1)), h2d(o(2))
		in1.Data = []int64{1, -2, 3, -4, 5, -6, 7, int64(b)}
		in2.Data = []int64{int64(-b), 9, -10, 11, -12, 13, -14, 15}
		s.Records = append(s.Records,
			alloc(o(1)), alloc(o(2)), alloc(o(3)), alloc(o(4)), alloc(o(5)),
			in1, in2,
			// Dead: o(3) is written, never observed, then freed.
			binRec("mul", o(1), o(2), o(3)),
			free(o(3)),
			// The scheduler moves the abs up past the independent d2h, next
			// to the add it consumes; fusion then collapses the pair.
			binRec("add", o(1), o(2), o(5)),
			d2h(o(1)),
			unaryRec("abs", o(5), o(5)),
			repeatBegin(4),
			// Invariant: inputs never written inside the scope → hoisted.
			scalarRec("mul", o(1), 7, o(4)),
			binRec("add", o(2), o(4), o(2)),
			repeatEnd(),
			d2h(o(2)),
			free(o(1)), free(o(4)),
		)
		base += 5
	}
	for i := range s.Records {
		s.Records[i].Seq = int64(i + 1)
	}
	return s
}

// replayOutputs replays src on a fresh device and returns the contents of
// the objects live at end of stream (every object allocated in live and not
// freed), plus the total simulated cost.
func replayOutputs(t *testing.T, src cmdstream.Source, live *cmdstream.Stream) (map[int64][]int64, perf.Cost) {
	t.Helper()
	d, err := device.NewFromHeader(src.Header(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := cmdstream.ReplaySourceOpts(d, src, cmdstream.ReplayOptions{}); err != nil {
		t.Fatal(err)
	}
	cost := d.Stats().Breakdown().Total()
	out := make(map[int64][]int64)
	for _, rec := range live.Records {
		switch rec.Kind {
		case cmdstream.KindAlloc:
			out[rec.Obj] = nil
		case cmdstream.KindFree:
			delete(out, rec.Obj)
		}
	}
	for id := range out {
		if out[id], err = d.CopyDeviceToHost(device.ObjID(id)); err != nil {
			t.Fatal(err)
		}
	}
	return out, cost
}

// TestOptimizeSourceMatchesSlice is the differential check between the two
// entry points of the pass driver. On a stream that fits one window, the
// windowed OptimizeSource must produce exactly Optimize's records, header
// stamp, and counters. On a stream of about 9 windows, liveness and
// adjacency cannot cross a window boundary. Blocks share no objects and a
// boundary splits at most one block, so each counter may fall short of
// Optimize's by at most one block's worth per boundary (one dead store plus
// its alloc/free pair, one scheduled pair, one fusion). The optimized stream
// must still replay to bit-identical data at no more than the original's
// cost.
func TestOptimizeSourceMatchesSlice(t *testing.T) {
	cfg := All()
	_, perBlock, err := Optimize(windowStream(1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, blocks := range []int{1, 3, 2000} {
		s := windowStream(blocks)
		want, wantRes, err := Optimize(s, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if wantRes.Eliminated == 0 || wantRes.Hoisted == 0 || wantRes.Moved == 0 || wantRes.Fused == 0 {
			t.Fatalf("blocks=%d: degenerate fixture (a pass found nothing: %+v)", blocks, wantRes)
		}
		src, gotRes, err := OptimizeSource(cmdstream.FromStream(s), cfg)
		if err != nil {
			t.Fatal(err)
		}
		gotHeader, gotRecs := drain(t, src)
		if !reflect.DeepEqual(gotHeader.Optimized, want.Header.Optimized) {
			t.Errorf("blocks=%d: header stamps %v, want %v", blocks, gotHeader.Optimized, want.Header.Optimized)
		}
		// Counters are final only after the source drains.
		if len(s.Records) <= windowRecs {
			if !reflect.DeepEqual(gotRecs, want.Records) {
				t.Errorf("blocks=%d: windowed records differ from Optimize's (%d vs %d records)",
					blocks, len(gotRecs), len(want.Records))
			}
			if *gotRes != wantRes {
				t.Errorf("blocks=%d: result %+v, want %+v", blocks, *gotRes, wantRes)
			}
			continue
		}

		boundaries := (len(s.Records)+windowRecs-1)/windowRecs - 1
		for _, c := range []struct {
			name                string
			got, want, perBlock int
		}{
			{"eliminated", gotRes.Eliminated, wantRes.Eliminated, perBlock.Eliminated},
			{"hoisted", gotRes.Hoisted, wantRes.Hoisted, perBlock.Hoisted},
			{"moved", gotRes.Moved, wantRes.Moved, perBlock.Moved},
			{"fused", gotRes.Fused, wantRes.Fused, perBlock.Fused},
		} {
			if slack := boundaries * c.perBlock; c.got > c.want || c.want-c.got > slack {
				t.Errorf("blocks=%d: %s = %d, want within %d below %d", blocks, c.name, c.got, slack, c.want)
			}
		}
		baseData, baseCost := replayOutputs(t, cmdstream.FromStream(s), s)
		optData, optCost := replayOutputs(t, cmdstream.FromRecords(gotHeader, gotRecs), s)
		t.Logf("blocks=%d over %d windows: windowed %+v, whole-stream %+v", blocks, boundaries+1, *gotRes, wantRes)
		if !reflect.DeepEqual(optData, baseData) {
			t.Errorf("blocks=%d: windowed optimization changed replayed data", blocks)
		}
		if optCost.TimeNS > baseCost.TimeNS*(1+1e-9) || optCost.EnergyPJ > baseCost.EnergyPJ*(1+1e-9) {
			t.Errorf("blocks=%d: windowed optimization raised cost %+v > %+v", blocks, optCost, baseCost)
		}
	}
}

// TestOptimizeSourceSeqRenumbered: the windowed source must emit dense
// 1-based sequence numbers after elimination, like the slice optimizer.
func TestOptimizeSourceSeqRenumbered(t *testing.T) {
	src, _, err := OptimizeSource(cmdstream.FromStream(windowStream(5)), Config{DeadCode: true, Hoist: true})
	if err != nil {
		t.Fatal(err)
	}
	_, recs := drain(t, src)
	for i, rec := range recs {
		if rec.Seq != int64(i+1) {
			t.Fatalf("record %d has seq %d, want %d", i, rec.Seq, i+1)
		}
	}
}

// TestOptimizeSourcePassthrough: no passes requested → the source is
// returned unwrapped; corrupting fault configs → Skipped passthrough.
func TestOptimizeSourcePassthrough(t *testing.T) {
	s := windowStream(1)
	src, res, err := OptimizeSource(cmdstream.FromStream(s), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Changed() || res.Skipped != "" {
		t.Errorf("no-pass result = %+v, want untouched", res)
	}
	_, recs := drain(t, src)
	if !reflect.DeepEqual(recs, s.Records) {
		t.Error("no-pass OptimizeSource altered the stream")
	}

	h := header()
	h.Faults = &fault.Config{Seed: 1, TransientBitRate: 1e-4}
	f := windowStream(1)
	f.Header = h
	src, res, err = OptimizeSource(cmdstream.FromStream(f), All())
	if err != nil {
		t.Fatal(err)
	}
	if res.Skipped == "" {
		t.Errorf("corrupting-fault result = %+v, want skipped", res)
	}
	gotHeader, recs := drain(t, src)
	if !reflect.DeepEqual(recs, f.Records) || len(gotHeader.Optimized) != 0 {
		t.Error("corrupting-fault stream was modified")
	}
}

// TestOptimizeSourceValidates: malformed streams (nested scopes,
// unterminated scopes) must be rejected mid-stream, not silently
// optimized.
func TestOptimizeSourceValidates(t *testing.T) {
	bad := map[string][]cmdstream.Record{
		"nested":       {repeatBegin(2), repeatBegin(2), repeatEnd(), repeatEnd()},
		"unterminated": {alloc(1), repeatBegin(2), scalarRec("mul", 1, 3, 1)},
		"zero-factor":  {repeatBegin(0), repeatEnd()},
	}
	for name, recs := range bad {
		for i := range recs {
			recs[i].Seq = int64(i + 1)
		}
		src, _, err := OptimizeSource(cmdstream.FromRecords(header(), recs), Config{DeadCode: true, Hoist: true})
		if err != nil {
			continue // eager rejection is fine too
		}
		for {
			_, err = src.Next()
			if err != nil {
				break
			}
		}
		if err == io.EOF {
			t.Errorf("%s: malformed stream optimized without error", name)
		}
	}
}

// TestOptimizeSourcePackedWindows: over a PIMB decoder, optimizer windows
// hold their payloads packed at element width — in-type frames, raw int64
// fallback frames, and payloads in repeat-scope bodies. The window bound
// still counts elements, so a payload-heavy stream splits into exactly the
// windows its int64 carriers do: the same records once widened, the same
// counters, and a bit-identical replay, serial and pipelined.
func TestOptimizeSourcePackedWindows(t *testing.T) {
	const n = 1 << 19
	const blocks = 7 // 10.5 Mi payload elements: the bound closes one window
	fit, raw := make([]int64, n), make([]int64, n)
	for i := range fit {
		fit[i] = int64(i%50000) - 25000
		raw[i] = -fit[i]
	}
	raw[n/2] = 1 << 40 // does not fit int16: the raw int64 fallback
	h := windowStream(1).Header
	s := &cmdstream.Stream{Header: h}
	typed := func(rec cmdstream.Record) cmdstream.Record {
		rec.Type, rec.N = "int16", n
		return rec
	}
	var payload int64
	for b := int64(0); b < blocks; b++ {
		a, c, d, e := 4*b+1, 4*b+2, 4*b+3, 4*b+4
		inA, inC, inE := h2d(a), h2d(c), h2d(e)
		inA.Data, inC.Data, inE.Data = fit, fit, fit
		if b%4 == 0 {
			inC.Data = raw
		}
		s.Records = append(s.Records,
			typed(alloc(a)), typed(alloc(c)), typed(alloc(d)), typed(alloc(e)),
			inA, inC,
			typed(binRec("mul", a, c, d)), // dead: d is freed unread
			free(d),
			repeatBegin(2),
			inE,
			typed(scalarRec("add", a, 3, c)), // invariant: hoisted
			repeatEnd(),
			d2h(c), free(a),
		)
		payload += 3 * n
	}
	for i := range s.Records {
		s.Records[i].Seq = int64(i + 1)
	}
	if payload <= windowPayloadElems {
		t.Fatalf("fixture carries %d payload elements, within one window", payload)
	}
	var enc bytes.Buffer
	if err := s.EncodeBinary(&enc); err != nil {
		t.Fatal(err)
	}
	cfg := Config{DeadCode: true, Hoist: true}
	optimize := func(packed bool) (cmdstream.Source, *Result) {
		src := cmdstream.FromStream(s)
		if packed {
			var err error
			if src, err = cmdstream.OpenSource(bytes.NewReader(enc.Bytes())); err != nil {
				t.Fatal(err)
			}
		}
		osrc, res, err := OptimizeSource(src, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return osrc, res
	}
	wantSrc, wantRes := optimize(false)
	want, err := cmdstream.Collect(wantSrc)
	if err != nil {
		t.Fatal(err)
	}
	gotSrc, gotRes := optimize(true)
	got, err := cmdstream.Collect(gotSrc)
	if err != nil {
		t.Fatal(err)
	}
	// Payloads compare with slices.Equal: reflect would walk every element.
	same := len(got.Records) == len(want.Records)
	for i := 0; same && i < len(got.Records); i++ {
		g, w := got.Records[i], want.Records[i]
		same = slices.Equal(g.Data, w.Data)
		g.Data, w.Data = nil, nil
		same = same && reflect.DeepEqual(g, w)
	}
	if !same || *gotRes != *wantRes {
		t.Fatalf("packed windows differ from carrier windows: %d records %+v, want %d records %+v",
			len(got.Records), *gotRes, len(want.Records), *wantRes)
	}
	if wantRes.Eliminated == 0 || wantRes.Hoisted == 0 {
		t.Fatalf("degenerate fixture: %+v", *wantRes)
	}

	replay := func(src cmdstream.Source, pipelined bool) (string, map[int64][]int64) {
		d, err := device.NewFromHeader(src.Header(), 1)
		if err != nil {
			t.Fatal(err)
		}
		d.EnableTrace()
		if err := cmdstream.ReplaySourceOpts(d, src, cmdstream.ReplayOptions{Pipelined: pipelined}); err != nil {
			t.Fatal(err)
		}
		out := make(map[int64][]int64)
		for b := int64(0); b < blocks; b++ {
			for _, id := range []int64{4*b + 2, 4*b + 4} {
				if out[id], err = d.CopyDeviceToHost(device.ObjID(id)); err != nil {
					t.Fatal(err)
				}
			}
		}
		return d.ReportString() + d.TraceString(), out
	}
	wantReport, wantData := replay(cmdstream.FromStream(want), false)
	for _, pipelined := range []bool{false, true} {
		src, _ := optimize(true)
		report, data := replay(src, pipelined)
		if report != wantReport || !maps.EqualFunc(data, wantData, slices.Equal[[]int64]) {
			t.Errorf("pipelined=%v: replay over packed windows diverged", pipelined)
		}
	}
}
