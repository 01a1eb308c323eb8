package main

// metricDef names one metric the harness emits. BENCHMARK.json carries
// name, unit and direction (and the bound of end-to-end metrics); a test
// fails when the two lists disagree. The remaining fields document what
// the contract's schema has no room for.
type metricDef struct {
	name, unit, better string
	bound              float64 // end-to-end only: share of the parent's median it may worsen by
	// Per-layer only: the end-to-end metric the layer metric should
	// move, and the workload it should move it on most.
	moves, on string
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd lists what a user of the system sees, in reporting order.
// Every one is reported on every workload as the median over the run's
// repetitions.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: lower, bound: 0.25},
	{name: "simulate_s", unit: "s", better: lower, bound: 0.25},
	{name: "analyze_s", unit: "s", better: lower, bound: 0.25},
	{name: "analyze_w1_s", unit: "s", better: lower, bound: 0.25},
	{name: "batch_wall_s", unit: "s", better: lower, bound: 0.25},
	{name: "glass_ingest_records_per_s", unit: "records/s", better: higher, bound: 0.25},
	{name: "snapshot_mean_ms", unit: "ms", better: lower, bound: 0.25},
	{name: "live_goodput_records_per_s", unit: "records/s", better: higher, bound: 0.25},
	{name: "glass_state_mb", unit: "MB", better: lower, bound: 0.10},
}

// perLayer lists the traced repetition's metrics, layer = module name.
// For pure work counts the direction is nominal: they exist so that
// ratios have their base and a changed world is noticed.
var perLayer = []metricDef{
	{name: "scenario.plan_s", unit: "s", better: lower, moves: "simulate_s", on: "paper"},
	{name: "scenario.drive_self_s", unit: "s", better: lower, moves: "simulate_s", on: "paper"},
	{name: "scenario.injects", unit: "count", better: lower, moves: "simulate_s", on: "paper"},
	{name: "scenario.control_msgs", unit: "count", better: lower, moves: "simulate_s", on: "paper"},
	{name: "routeserver.process_s", unit: "s", better: lower, moves: "simulate_s", on: "paper, escalate"},
	{name: "routeserver.process_us_per_update", unit: "us", better: lower, moves: "simulate_s, live_goodput_records_per_s", on: "paper, escalate"},
	{name: "fabric.inject_s", unit: "s", better: lower, moves: "simulate_s", on: "flowheavy, escalate"},
	{name: "fabric.inject_ns_per_record", unit: "ns/record", better: lower, moves: "simulate_s", on: "flowheavy, escalate"},
	{name: "fabric.offered_pkts", unit: "pkts", better: higher, moves: "simulate_s", on: "all"},
	{name: "fabric.sampled_records", unit: "records", better: higher, moves: "simulate_s", on: "all"},
	{name: "fabric.dropped_pkts", unit: "pkts", better: higher, moves: "simulate_s", on: "all"},
	{name: "ipfix.encode_s", unit: "s", better: lower, moves: "simulate_s", on: "flowheavy"},
	{name: "ipfix.encode_ns_per_record", unit: "ns/record", better: lower, moves: "simulate_s", on: "flowheavy"},
	{name: "ipfix.bytes_written", unit: "bytes", better: lower, moves: "simulate_s", on: "flowheavy"},
	{name: "ipfix.decode_s", unit: "s", better: lower, moves: "analyze_s, analyze_w1_s", on: "flowheavy"},
	{name: "ipfix.decode_ns_per_record", unit: "ns/record", better: lower, moves: "analyze_s, analyze_w1_s", on: "flowheavy"},
	{name: "mrt.write_s", unit: "s", better: lower, moves: "simulate_s", on: "paper"},
	{name: "mrt.parse_s", unit: "s", better: lower, moves: "analyze_s", on: "paper"},
	{name: "dataset.open_s", unit: "s", better: lower, moves: "analyze_s", on: "paper"},
	{name: "events.merge_s", unit: "s", better: lower, moves: "analyze_s, glass_ingest_records_per_s", on: "paper"},
	{name: "events.index_s", unit: "s", better: lower, moves: "analyze_s, glass_ingest_records_per_s", on: "paper"},
	{name: "events.count", unit: "count", better: higher, moves: "analyze_s", on: "paper"},
	{name: "pipeline.observe_s", unit: "s", better: lower, moves: "analyze_w1_s", on: "flowheavy"},
	{name: "pipeline.observe_ns_per_record", unit: "ns/record", better: lower, moves: "analyze_w1_s", on: "flowheavy"},
	{name: "pipeline.allocs_per_record", unit: "allocs/record", better: lower, moves: "analyze_w1_s", on: "flowheavy"},
	{name: "pipeline.parallel_s", unit: "s", better: lower, moves: "analyze_s", on: "flowheavy"},
	{name: "pipeline.parallel_w1_s", unit: "s", better: lower, moves: "analyze_s", on: "flowheavy"},
	{name: "pipeline.speedup", unit: "ratio", better: higher, moves: "analyze_s", on: "flowheavy"},
	{name: "pipeline.merge_s", unit: "s", better: lower, moves: "analyze_s", on: "flowheavy"},
	{name: "pipeline.shard_skew", unit: "ratio", better: lower, moves: "analyze_s", on: "flowheavy"},
	{name: "compose.fig3_load_s", unit: "s", better: lower, moves: "analyze_s, analyze_w1_s, snapshot_mean_ms", on: "paper"},
	{name: "compose.fig4_visibility_s", unit: "s", better: lower, moves: "analyze_s, analyze_w1_s, snapshot_mean_ms", on: "paper"},
	{name: "compose.fig10_sweep_s", unit: "s", better: lower, moves: "analyze_s, analyze_w1_s, snapshot_mean_ms", on: "paper"},
	{name: "compose.fig2_timealign_s", unit: "s", better: lower, moves: "analyze_s, analyze_w1_s, snapshot_mean_ms", on: "paper"},
	{name: "compose.dropstats_s", unit: "s", better: lower, moves: "analyze_s, analyze_w1_s, snapshot_mean_ms", on: "paper"},
	{name: "compose.anomaly_s", unit: "s", better: lower, moves: "analyze_s, analyze_w1_s, snapshot_mean_ms", on: "paper"},
	{name: "compose.protomix_s", unit: "s", better: lower, moves: "analyze_s, analyze_w1_s, snapshot_mean_ms", on: "paper"},
	{name: "compose.hosts_s", unit: "s", better: lower, moves: "analyze_s, analyze_w1_s, snapshot_mean_ms", on: "flowheavy"},
	{name: "compose.collateral_s", unit: "s", better: lower, moves: "analyze_s, analyze_w1_s, snapshot_mean_ms", on: "flowheavy"},
	{name: "compose.usecase_s", unit: "s", better: lower, moves: "analyze_s, analyze_w1_s, snapshot_mean_ms", on: "paper"},
	{name: "compose.mitigation_s", unit: "s", better: lower, moves: "analyze_s, analyze_w1_s, snapshot_mean_ms", on: "escalate"},
	{name: "compose.total_s", unit: "s", better: lower, moves: "analyze_s, analyze_w1_s, snapshot_mean_ms", on: "paper"},
	{name: "compose.mirror_gap", unit: "ratio", better: lower, moves: "none (validity of the compose.* rows)", on: "all"},
	{name: "textreport.render_s", unit: "s", better: lower, moves: "analyze_s", on: "none (expected below 1 %)"},
	{name: "textreport.bytes", unit: "bytes", better: lower, moves: "analyze_s", on: "none"},
	{name: "online.ingest_ns_per_record", unit: "ns/record", better: lower, moves: "glass_ingest_records_per_s, live_goodput_records_per_s", on: "flowheavy"},
	{name: "online.records_compacted", unit: "records", better: higher, moves: "snapshot_mean_ms, glass_state_mb", on: "flowheavy"},
	{name: "online.retained_flows_max", unit: "records", better: lower, moves: "snapshot_mean_ms, glass_state_mb", on: "paper"},
	{name: "online.snapshot_first_ms", unit: "ms", better: lower, moves: "snapshot_mean_ms", on: "all"},
	{name: "online.snapshot_last_ms", unit: "ms", better: lower, moves: "snapshot_mean_ms", on: "all"},
	{name: "pipeline.clone_ms", unit: "ms", better: lower, moves: "snapshot_mean_ms", on: "flowheavy"},
	{name: "serve.cold_query_ms", unit: "ms", better: lower, moves: "snapshot_mean_ms", on: "paper"},
	{name: "serve.cached_query_p50_us", unit: "us", better: lower, moves: "none (must stay far below the cold query)", on: "all"},
	{name: "serve.cached_query_p99_us", unit: "us", better: lower, moves: "none (must stay far below the cold query)", on: "all"},
	{name: "serve.response_bytes", unit: "bytes", better: lower, moves: "none", on: "all"},
	{name: "live.transport_records_per_s", unit: "records/s", better: higher, moves: "live_goodput_records_per_s", on: "flowheavy"},
	{name: "live.update_rtt_us", unit: "us", better: lower, moves: "live_goodput_records_per_s", on: "paper"},
	{name: "live.run_s", unit: "s", better: lower, moves: "live_goodput_records_per_s", on: "all"},
	{name: "live.final_s", unit: "s", better: lower, moves: "none (time to the final report after a live run)", on: "all"},
	{name: "live.loss_share", unit: "ratio", better: lower, moves: "live_goodput_records_per_s", on: "flowheavy, escalate"},
	{name: "live.exported_records", unit: "records", better: higher, moves: "live_goodput_records_per_s", on: "all"},
	{name: "live.collected_records", unit: "records", better: higher, moves: "live_goodput_records_per_s", on: "all"},
	{name: "live.dropped_records", unit: "records", better: lower, moves: "live_goodput_records_per_s", on: "flowheavy, escalate"},
	{name: "live.queue_dropped_datagrams", unit: "count", better: lower, moves: "live_goodput_records_per_s", on: "flowheavy, escalate"},
	{name: "live.late_msgs", unit: "count", better: lower, moves: "live_goodput_records_per_s", on: "none (0 without a fault plan)"},
	{name: "live.decode_errors", unit: "count", better: lower, moves: "live_goodput_records_per_s", on: "none (0 without a fault plan)"},
	{name: "proc.peak_rss_mb", unit: "MB", better: lower, moves: "none (ru_maxrss; follows the collector's timing, +-15 % between runs)", on: "all"},
	{name: "proc.heap_peak_mb", unit: "MB", better: lower, moves: "glass_state_mb", on: "all"},
	{name: "proc.gc_pause_total_ms", unit: "ms", better: lower, moves: "none (collector work across the traced repetition)", on: "all"},
	{name: "proc.trace_overhead_share", unit: "ratio", better: lower, moves: "none (cost of the harness's own timing)", on: "all"},
}
