package main

import "sentinel/internal/experiment"

// metricDef is one metric of BENCHMARK.json. The test suite checks that
// these lists and BENCHMARK.json agree exactly.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
	// owners are the workloads whose traced runs measure a per-layer
	// metric; every other workload's traced run reports it as 0.
	owners []string
}

// endToEnd are the metrics a user of the simulator sees. Every workload
// reports all of them; an "op" is one sweep (paper-sweep), one round of
// training steps (steady-steps), one cell (cold-plan) or one request
// (serve-mixed). Times are the process's CPU time scaled to a nominal
// host speed (see clock.go). A bound is the share of the parent's median
// by which a metric may get worse before a change counts as a
// regression. setup_s has the widest; README.md explains each.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "ops_per_cpu_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "op_cpu_ms_p50", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "op_cpu_ms_tail", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.2},
}

// stepKinds are the simulator event kinds steady-steps counts per step.
var stepKinds = []string{
	"access", "alloc", "free", "place", "arena-grow", "arena-reclaim", "fault",
	"migrate-in", "migrate-out", "stall", "demand", "migrate-retry", "degrade",
}

// perLayer lists the traced run's metrics, grouped by the workloads that
// measure them.
func perLayer() []metricDef {
	var defs []metricDef
	add := func(owners []string, unit, better string, names ...string) {
		for _, n := range names {
			defs = append(defs, metricDef{Name: n, Unit: unit, Better: better, owners: owners})
		}
	}
	sweep, cold := []string{paperSweep}, []string{coldPlan}
	steady, serve := []string{steadySteps}, []string{serveMixed}
	// The sweep's cache and the server's cache keep the same counters.
	caches := []string{paperSweep, serveMixed}

	for _, id := range experiment.DefaultIDs() {
		add(sweep, "ms", "lower", "experiment."+id+"_ms")
	}
	add(caches, "count", "higher", "experiment.cache_hits")
	add(caches, "count", "lower", "experiment.cache_misses", "experiment.cache_waits")

	add(cold, "ms", "lower", "model.build_ms_p50", "profile.collect_ms_p50",
		"core.plan_ms_p50", "exec.setup_ms_p50", "exec.profiled_step_ms_p50",
		"exec.managed_step_ms_p50", "experiment.harness_ms_p50",
		"baseline.autotm_setup_ms_p50", "baseline.swapadvisor_setup_ms_p50")
	add(cold, "count", "lower", "profile.faults_per_cell",
		"core.intervals_per_plan", "model.ops_per_graph")

	for _, c := range steadyCells(0) {
		add(steady, "ms", "lower", "exec.step_ms_p50."+c.Name)
	}
	add(steady, "ns", "lower", "exec.host_ns_per_op")
	for _, k := range stepKinds {
		add(steady, "count/step", "lower", "trace."+k+"_per_step")
	}
	add(steady, "%", "lower", "trace.overhead_pct")

	add(serve, "ms", "lower", "serve.hit_ms_p50", "serve.miss_ms_p50", "serve.miss_ms_p95")
	add(serve, "us", "lower", "experiment.cache_hit_us_p50")
	add(serve, "count", "lower", "serve.rejected")
	return defs
}
