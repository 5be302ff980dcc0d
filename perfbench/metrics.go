package main

// metricDef names one reported metric and its unit. BENCHMARK.json lists
// the same names and units (TestMetricNamesMatchBenchmarkJSON).
type metricDef struct{ name, unit string }

// endToEndMetrics are reported by untraced runs. Every workload has two
// kinds of operation, a and b; NOTES.md gives what they are and what one
// unit of work is on each workload. Tail latencies are per-layer metrics
// of the traced run: on a two-vCPU machine shared with other guests they
// spread too far from run to run to carry a bound.
var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"a_per_s", "1/s"},
	{"b_per_s", "1/s"},
	{"a_p50_ms", "ms"},
	{"b_p50_ms", "ms"},
	{"alloc_mb", "MB"},
	{"pass_ratio", "ratio"},
}

// layers are the modules CPU-profile samples are attributed to: the
// repository's internal packages by name, "other" for its remaining
// internal packages, "harness" for the benchmark's own code, "net" for
// the network stack and "runtime" for everything else.
var layers = []string{
	"sim", "dram", "mem", "cache", "cpu", "bench", "charz", "curvestore",
	"core", "trace", "memmodel", "messsim", "other", "harness", "net", "runtime",
}

// layerMetrics are reported by traced runs; a layer that is idle on a
// workload reports 0.
var layerMetrics = []metricDef{
	{"sim.cpu_s", "s"},
	{"sim.events", "count"},
	{"sim.ns_per_event", "ns"},
	{"dram.cpu_s", "s"},
	{"dram.row_hit_ratio_read", "ratio"},
	{"dram.row_hit_ratio_write", "ratio"},
	{"mem.cpu_s", "s"},
	{"cache.cpu_s", "s"},
	{"cpu.cpu_s", "s"},
	{"cpu.allocs_per_step", "count"},
	{"bench.cpu_s", "s"},
	{"bench.points", "count"},
	{"bench.worker_util", "ratio"},
	{"messsim.cpu_s", "s"},
	{"memmodel.cpu_s", "s"},
	{"trace.cpu_s", "s"},
	{"trace.replayed_records", "count"},
	{"trace.divergence_pct", "%"},
	{"trace.speedup_x", "x"},
	{"charz.cpu_s", "s"},
	{"charz.characterize_ms_p50", "ms"},
	{"charz.characterize_ms_p99", "ms"},
	{"charz.remote_hits", "count"},
	{"curvestore.cpu_s", "s"},
	{"curvestore.client_load_ms_p50", "ms"},
	{"curvestore.server_get_ms_p50", "ms"},
	{"curvestore.disk_load_ms_p50", "ms"},
	{"curvestore.save_ms_p50", "ms"},
	{"curvestore.save_ms_p90", "ms"},
	{"curvestore.hot_tier_hit_ratio", "ratio"},
	{"curvestore.bytes_out", "bytes"},
	{"core.cpu_s", "s"},
	{"other.cpu_s", "s"},
	{"harness.cpu_s", "s"},
	{"net.cpu_s", "s"},
	{"runtime.cpu_s", "s"},
	{"runtime.gc_cycles", "count"},
	{"profile.cpu_s", "s"},
	{"traced.overhead_pct", "%"},
}
