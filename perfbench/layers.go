package main

// layerMetric is one per-layer metric of the traced pass, with the
// end-to-end metric and workload it is expected to move.
type layerMetric struct {
	name, unit, better, moves string
}

// layerMetrics lists the per_layer metrics of BENCHMARK.json, in order.
var layerMetrics = []layerMetric{
	{"analysis.solve_reset_ms", "ms", "lower", "wall_s,cpu_s on sweep-noreset, service-jobs, grid-mixed; flat on attack-suite"},
	{"analysis.solve_noreset_ms", "ms", "lower", "wall_s,cpu_s on sweep-noreset only"},
	{"analysis.solve_calls", "count", "lower", "cpu_s on sweep-noreset, service-jobs, grid-mixed"},
	{"analysis.share", "ratio", "lower", "wall_s,cpu_s on sweep-noreset most"},
	{"sim.setup_ms", "ms", "lower", "cpu_s,alloc_mb on service-jobs, grid-mixed"},
	{"sim.setup_allocs", "count", "lower", "alloc_mb on service-jobs, grid-mixed"},
	{"sim.run_s", "s", "lower", "wall_s,cpu_s on grid-mixed"},
	{"sim.ns_per_inst.high", "ns", "lower", "wall_s,cpu_s on grid-mixed"},
	{"sim.ns_per_inst.low", "ns", "lower", "wall_s,cpu_s on grid-mixed, sweep-noreset"},
	{"sim.allocs_per_kinst", "count", "lower", "alloc_mb,cpu_s on grid-mixed"},
	{"sim.engine_steps", "count", "lower", "wall_s on grid-mixed"},
	{"sim.elided_cycles", "count", "higher", "wall_s on grid-mixed"},
	{"cpu.instructions", "count", "higher", "none: fixed by the instruction budget"},
	{"cpu.stall_cycles", "count", "lower", "none: simulated"},
	{"cache.l1_misses", "count", "lower", "none: simulated"},
	{"cache.l2_misses", "count", "lower", "none: simulated"},
	{"cache.llc_misses", "count", "lower", "none: simulated"},
	{"cache.mshr_merges", "count", "higher", "none: simulated"},
	{"cache.stalls", "count", "lower", "none: simulated"},
	{"trace.next_ns", "ns", "lower", "cpu_s on grid-mixed"},
	{"memctrl.reads", "count", "higher", "none: simulated"},
	{"memctrl.writes", "count", "higher", "none: simulated"},
	{"memctrl.row_misses", "count", "lower", "none: simulated"},
	{"memctrl.abo_rfms", "count", "lower", "none: simulated"},
	{"memctrl.read_latency_ns", "ns", "lower", "none: simulated"},
	{"mitigation.policy_rfms", "count", "lower", "none: simulated"},
	{"dram.acts", "count", "higher", "none: simulated"},
	{"dram.rfms", "count", "lower", "none: simulated"},
	{"dram.alerts", "count", "lower", "none: simulated"},
	{"attack.covert_ms", "ms", "lower", "wall_s on attack-suite"},
	{"attack.aes_ms", "ms", "lower", "wall_s on attack-suite"},
	{"attack.allocs_per_call", "count", "lower", "alloc_mb on attack-suite"},
	{"exp.executed", "count", "lower", "none: fixed by the grid"},
	{"exp.csv_ms", "ms", "lower", "wall_s on grid-mixed, sweep-noreset"},
	{"service.cold_job_s", "s", "lower", "wall_s on service-jobs"},
	{"service.warm_job_s", "s", "lower", "wall_s on service-jobs"},
	{"service.queue_wait_ms", "ms", "lower", "wall_s on service-jobs"},
	{"service.lease_ms", "ms", "lower", "wall_s on service-jobs"},
	{"service.ack_ms", "ms", "lower", "wall_s on service-jobs"},
	{"service.lease_expiries", "count", "lower", "wall_s on service-jobs"},
	{"store.get_ms", "ms", "lower", "wall_s,setup_s on service-jobs"},
	{"journal.recover_ms", "ms", "lower", "wall_s,setup_s on service-jobs"},
	{"shard.export_ms", "ms", "lower", "wall_s on service-jobs"},
	{"bench.trace_overhead_s", "s", "lower", "none: traced pass wall time minus wall_s"},
}
