package main

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEndMetrics are printed by every workload with --trace 0.
var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"throughput_rps", "1/s"},
	{"cpu_ms_per_req", "ms"},
	{"cpu_ms_per_cycle", "ms"},
	{"access_bytes_mean", "bytes"},
	{"tuning_bytes_mean", "bytes"},
	{"success_ratio", "ratio"},
	{"heap_peak_mb", "MB"},
}

// layerMetrics are printed by every workload with --trace 1. A layer that
// a workload bypasses does no work there and reads 0.
var layerMetrics = func() []metricDef {
	defs := []metricDef{
		{"sim.run_s", "s"},
		{"sim.engine_s", "s"},
		{"sim.client_s", "s"},
		{"sim.cycles", "count"},
		{"sim.cycle_bytes_mean", "bytes"},
		{"sim.index_bytes_mean", "bytes"},
		{"sim.index_tuning_bytes_mean", "bytes"},
		{"sim.doc_tuning_bytes_mean", "bytes"},
	}
	for _, st := range traceStages {
		defs = append(defs,
			metricDef{"engine." + st + ".count", "count"},
			metricDef{"engine." + st + ".busy_ms", "ms"},
			metricDef{"engine." + st + ".p50_us", "us"},
			metricDef{"engine." + st + ".p99_us", "us"},
		)
	}
	defs = append(defs,
		metricDef{"engine.answer_hit_ratio", "ratio"},
		metricDef{"engine.prune_incremental_ratio", "ratio"},
		metricDef{"engine.schedule_incremental_ratio", "ratio"},
		metricDef{"engine.answer_evictions", "count"},
		metricDef{"engine.payload_evictions", "count"},
		metricDef{"engine.degraded_cycles", "count"},
		metricDef{"netcast.ack_ms.p50", "ms"},
		metricDef{"netcast.ack_ms.p99", "ms"},
		metricDef{"netcast.admit_to_first_cycle_ms.p50", "ms"},
		metricDef{"netcast.cycle_period_ms.p50", "ms"},
		metricDef{"netcast.cycle_period_ms.p99", "ms"},
		metricDef{"netcast.cycles_per_req", "count"},
		metricDef{"netcast.cycles_per_s", "1/s"},
		metricDef{"netcast.pending.max", "count"},
		metricDef{"netcast.downlink_bytes_per_cycle", "bytes"},
		metricDef{"netcast.rejects", "count"},
		metricDef{"netcast.resyncs", "count"},
		metricDef{"netcast.reconnects", "count"},
	)
	for _, kind := range frameKinds {
		defs = append(defs,
			metricDef{"transport.encode_us." + kind, "us"},
			metricDef{"transport.decode_us." + kind, "us"},
			metricDef{"transport.ratio." + kind, "ratio"},
		)
	}
	return append(defs,
		metricDef{"journal.admit_us.p50", "us"},
		metricDef{"journal.admit_us.p99", "us"},
		metricDef{"journal.commit_us.p50", "us"},
		metricDef{"journal.commit_us.p99", "us"},
		metricDef{"journal.bytes_per_req", "bytes"},
		metricDef{"client.retrieve_ms.p50", "ms"},
		metricDef{"client.retrieve_ms.p99", "ms"},
		metricDef{"client.parse_ms_per_req", "ms"},
		metricDef{"client.index_lookup_us", "us"},
		metricDef{"proc.alloc_mb_per_req", "MB"},
		metricDef{"proc.gc_cpu_ratio", "ratio"},
		metricDef{"loadgen.late_ms.p99", "ms"},
		metricDef{"trace.overhead_ratio", "ratio"},
		metricDef{"fail_ratio", "ratio"},
	)
}()

// frameKinds are the downlink frame types whose transport cost is reported.
var frameKinds = []string{"index", "second_tier", "doc"}

// newLayerMetrics returns every per-layer metric at 0, for a workload to
// overwrite with what it measures.
func newLayerMetrics() metrics {
	m := make(metrics, len(layerMetrics))
	for _, d := range layerMetrics {
		m.set(d.name, 0, d.unit)
	}
	return m
}
