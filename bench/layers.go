package bench

import (
	"pimeval/internal/isa"
	"pimeval/pim"
)

// PerLayer are the traced run's metrics, one set per layer; every traced
// run reports all of them, zero where its workload does not reach the
// layer. Times and counts measured through the wrappers are per operation
// of the workload; README.md maps each to the end-to-end metric it should
// move.
var PerLayer = perLayerDefs()

func perLayerDefs() []Def {
	var defs []Def
	add := func(name, unit, better string) { defs = append(defs, Def{name, unit, better}) }
	for _, t := range pim.AllTargets {
		add("suite.pass_s."+t.String(), "s", "lower")
	}
	for _, b := range suiteApps() {
		add("suite.bench_s."+b.Info().Name, "s", "lower")
	}
	add("suite.host_s", "s", "lower")
	for _, k := range deviceKinds {
		add("device.busy_s."+k, "s", "lower")
	}
	for _, k := range deviceKinds {
		add("device.cmds."+k, "count", "lower")
	}
	add("device.snapshot_write_s", "s", "lower")
	add("device.snapshot_mb", "MB", "lower")
	add("device.checkpoints", "count", "lower")
	add("device.restore_s", "s", "lower")
	add("cmdstream.decode_s", "s", "lower")
	add("cmdstream.records", "count", "lower")
	add("cmdstream.payload_mb", "MB", "lower")
	add("cmdstream.pipeline_wait_s", "s", "lower")
	add("cmdstream.skip_s", "s", "lower")
	add("cmdstream.encode_s", "s", "lower")
	add("streamopt.window_s", "s", "lower")
	add("streamopt.eliminated", "count", "higher")
	add("streamopt.hoisted", "count", "higher")
	add("streamopt.kept_ratio", "ratio", "lower")
	for _, q := range []string{"handler_ms.p50", "handler_ms.p99", "http_ms.p50", "http_ms.p99",
		"fresh_ms.p99", "dedup_ms.p50", "journal_ms.p50"} {
		add("server."+q, "ms", "lower")
	}
	add("server.response_kb", "KiB", "lower")
	add("server.late_ms.max", "ms", "lower")
	add("server.dedup_hits", "count", "higher")
	for _, c := range []string{"rejected", "failed", "journal_errors", "checkpoint_errors"} {
		add("server."+c, "count", "lower")
	}
	for op := isa.OpAdd; op <= isa.OpPopCount; op++ {
		add("bitserial.eval_s."+op.String(), "s", "lower")
	}
	add("bitserial.call_us", "us", "lower")
	add("bitserial.build_ms", "ms", "lower")
	add("runtime.alloc_mb", "MB", "lower")
	add("runtime.gc_pause_ms", "ms", "lower")
	add("trace_overhead_pct", "%", "lower")
	add("trace.attributed_pct", "%", "higher")
	return defs
}

// spanLayers maps span names to the per-operation metrics derived from
// their self time.
var spanLayers = map[string]string{
	"device.snapshot_write":   "device.snapshot_write_s",
	"device.restore":          "device.restore_s",
	"cmdstream.decode":        "cmdstream.decode_s",
	"cmdstream.pipeline_wait": "cmdstream.pipeline_wait_s",
	"cmdstream.skip":          "cmdstream.skip_s",
	"streamopt.window":        "streamopt.window_s",
}

// layerMetrics assembles a traced run's per-layer metrics from the untraced
// half (plain), the traced half, and the traced half's spans.
func layerMetrics(plain, traced *measured, tr *Tracer) map[string]Metric {
	vals := map[string]float64{}
	ops := float64(traced.m.ops())
	if ops == 0 {
		ops = 1
	}
	layers := tr.Layers()
	for _, k := range deviceKinds {
		lt := layers["device."+k]
		vals["device.busy_s."+k] = lt.Self.Seconds() / ops
		vals["device.cmds."+k] = float64(lt.Calls) / ops
	}
	for span, name := range spanLayers {
		vals[name] = layers[span].Self.Seconds() / ops
	}
	vals["device.checkpoints"] = float64(layers["device.snapshot_write"].Calls) / ops
	if op := layers["bench.op"]; op.Total > 0 {
		vals["trace.attributed_pct"] = 100 * (1 - op.Self.Seconds()/op.Total.Seconds())
	}
	vals["trace_overhead_pct"] = 100 * (plain.opsPerS()/traced.opsPerS() - 1)
	n := float64(plain.m.attempted)
	vals["runtime.alloc_mb"] = plain.allocMB / n
	vals["runtime.gc_pause_ms"] = plain.gcPause.Seconds() * 1e3 / n
	for name, v := range traced.m.perOp {
		vals[name] = v / ops
	}
	for _, p := range []*measured{plain, traced} {
		for name, v := range p.m.layer {
			vals[name] = v
		}
	}
	out := map[string]Metric{}
	for _, d := range PerLayer {
		out[d.Name] = Metric{vals[d.Name], d.Unit}
	}
	return out
}
