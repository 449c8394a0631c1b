package main

import "math"

// metricDef names one reported metric and its unit; the lists below are
// the ones BENCHMARK.json declares, in its order.
type metricDef struct{ name, unit string }

// endToEndMetrics is what every untraced run prints.
var endToEndMetrics = []metricDef{
	{"norm_execs_per_sec", "exec/s"},
	{"norm_cpu_us_per_exec", "us"},
	{"allocs_per_exec", "count"},
	{"bytes_per_exec", "B"},
	{"max_rss_mb", "MB"},
	{"setup_s", "s"},
	{"norm_trial_ms_p50", "ms"},
	{"norm_trial_ms_p90", "ms"},
	{"schedules_to_bug_p50", "count"},
	{"bugs_found_frac", "fraction"},
	{"rf_pairs", "count"},
}

// perLayerMetrics is what every traced run prints. A workload that does
// not exercise a layer reports it as 0.
var perLayerMetrics = func() []metricDef {
	defs := []metricDef{
		{"exec.engine_ns_per_step", "ns"},
		{"exec.steps_per_exec", "count"},
		{"exec.run_us", "us"},
		{"exec.allocs_per_run", "count"},
		{"exec.cold_run_us", "us"},
		{"exec.summary_us", "us"},
		{"exec.reclaim_us", "us"},
		{"core.pick_ns", "ns"},
		{"core.executed_ns", "ns"},
		{"core.mutate_us", "us"},
		{"core.observe_us", "us"},
		{"core.power_us", "us"},
		{"core.corpus_add_us", "us"},
		{"core.stage_skip_frac", "fraction"},
		{"core.interesting_frac", "fraction"},
		{"core.constraint_sat_frac", "fraction"},
		{"core.corpus_size", "count"},
		{"core.new_fuzzer_us", "us"},
	}
	for _, n := range layerNames {
		defs = append(defs, metricDef{n + ".share_pct", "%"})
	}
	defs = append(defs, metricDef{"untimed.share_pct", "%"})
	for l, n := range layerNames {
		if l := layer(l); l != lEngine && l != lPick && l != lExecuted {
			defs = append(defs, metricDef{n + ".allocs_per_exec", "count"})
		}
	}
	defs = append(defs,
		metricDef{"untimed.allocs_per_exec", "count"},
		metricDef{"shard.merge_ms", "ms"},
		metricDef{"shard.merge.share_pct", "%"},
		metricDef{"shard.utilization_pct", "%"},
		metricDef{"shard.steals", "count"},
	)
	for _, s := range []string{"rff", "pos", "pct3", "qlearn", "period", "genmc"} {
		defs = append(defs, metricDef{"strategy." + s + ".cell_ms_mean", "ms"}, metricDef{"strategy." + s + ".share_pct", "%"})
	}
	return append(defs,
		metricDef{"fleet.utilization_pct", "%"},
		metricDef{"budget.epochs", "count"},
		metricDef{"budget.reallocations", "count"},
		metricDef{"trace_overhead_pct", "%"},
	)
}()

// finishMetrics makes the outcome print exactly the declared metric set:
// a traced run fills layers its workload does not exercise with 0, an
// untraced run that failed to measure a metric is a problem. A value
// that is not a finite number is also a problem (and prints as 0).
func finishMetrics(o *outcome, traced bool) {
	defs := endToEndMetrics
	if traced {
		defs = perLayerMetrics
	}
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		m, ok := o.metrics[d.name]
		switch {
		case !ok && traced:
			m = metric{0, d.unit}
		case !ok:
			o.problem("metric %s was not measured", d.name)
			m = metric{0, d.unit}
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			o.problem("metric %s is undefined", d.name)
			m.Value = 0
		}
		out[d.name] = m
	}
	o.metrics = out
}
