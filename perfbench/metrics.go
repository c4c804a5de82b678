package main

// layerMetric is one per-layer metric a traced run reports.
type layerMetric struct{ name, unit string }

// layerMetrics lists the per-layer metrics in BENCHMARK.json order.
// Counters come from public fields and are deterministic; a layer that a
// workload does not run reports 0.
var layerMetrics = []layerMetric{
	{"sim.events", "count"},
	{"sim.events_per_cycle", "1/cycle"},
	{"ring.data_words", "count"},
	{"ring.credit_words", "count"},
	{"ring.hop_cycles", "cycles"},
	{"cfifo.words", "count"},
	{"cfifo.peak_fill", "words"},
	{"accel.samples", "count"},
	{"accel.busy_share", "ratio"},
	{"accel.aborted", "count"},
	{"gateway.blocks", "count"},
	{"gateway.reconfig_share", "ratio"},
	{"gateway.retries", "count"},
	{"gateway.stalls", "count"},
	{"gateway.gamma_slack_min_cycles", "cycles"},
	{"mpsoc.samples_out", "count"},
	{"mpsoc.dropped", "count"},
	{"solve.calls", "count"},
	{"solve.calls.ilp", "count"},
	{"solve.calls.warm", "count"},
	{"solve.calls.float", "count"},
	{"solve.errors", "count"},
	{"solve.rounds", "count"},
	{"solve.self_s", "s"},
	{"cluster.arrivals", "count"},
	{"cluster.admitted", "count"},
	{"cluster.rejected", "count"},
	{"cluster.lost", "count"},
	{"cluster.ladder.failover", "count"},
	{"cluster.ladder.evacuate", "count"},
	{"cluster.ladder.shed", "count"},
	{"cluster.ladder.readmit", "count"},
	{"cluster.ladder.rebalance", "count"},
	{"cluster.ladder_slack_min_cycles", "cycles"},
	{"cluster.admit_latency_cycles.p50", "cycles"},
	{"cluster.admit_latency_cycles.p99", "cycles"},
	{"cluster.submit.self_s", "s"},
	{"cluster.depart.self_s", "s"},
	{"conformance.blocks_checked", "count"},
	{"conformance.violations", "count"},
	{"conformance.self_s", "s"},
	{"setup.self_s", "s"},
	{"run.other_self_s", "s"},
	{"trace.overhead_ratio", "ratio"},
	{"run.raw_cpu_ns_per_cycle", "ns/cycle"},
	{"run.wall_ns_per_cycle", "ns/cycle"},
	{"host.slowdown", "ratio"},
}

// selfTimeMetrics maps each self-time metric to the span it sums.
var selfTimeMetrics = map[string]string{
	"solve.self_s":          spanSolve,
	"cluster.submit.self_s": spanSubmit,
	"cluster.depart.self_s": spanDepart,
	"conformance.self_s":    spanConformance,
	"setup.self_s":          spanSetup,
	"run.other_self_s":      spanRun,
}
