package main

import (
	"math"
	"sort"
)

// metricDef names one reported metric and its unit. The two lists below
// are the benchmark's contract and must match BENCHMARK.json exactly
// (the smoke test checks it).
type metricDef struct{ name, unit string }

// endToEnd is what a user of orpsolve/orpfigures sees; emitted by an
// untraced run (-trace 0).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"solve_s", "s"},
	{"haspl_gap", "ratio"},
	{"pipeline_s", "s"},
	{"npb_mops", "Mop/s"},
	{"peak_rss_mb", "MB"},
	{"success_rate", "ratio"},
}

// perLayer splits the work by repository layer; emitted by a traced run
// (-trace 1). A layer a workload does not exercise reads 0.
var perLayer = []metricDef{
	{"opt.init_s", "s"},
	{"opt.loop_s", "s"},
	{"opt.final_eval_s", "s"},
	{"core.glue_s", "s"},
	{"opt.moves_per_s", "1/s"},
	{"opt.accept_ratio.swing", "ratio"},
	{"opt.accept_ratio.counter", "ratio"},
	{"opt.accept_ratio.swap", "ratio"},
	{"opt.best_snapshots", "count"},
	{"opt.clone_s", "s"},
	{"opt.allocs_per_move", "count"},
	{"hsgraph.sweep_s.w1", "s"},
	{"hsgraph.sweep_s.w2", "s"},
	{"hsgraph.sweep_ns_per_source_edge", "ns"},
	{"hsgraph.sweep_speedup_w2", "ratio"},
	{"hsgraph.inc.swept_sources_per_move", "count"},
	{"hsgraph.inc.dirty_frac", "ratio"},
	{"hsgraph.inc.peek_reuse_ratio", "ratio"},
	{"hsgraph.inc.full_rebuilds", "count"},
	{"hsgraph.inc.peek_store_skips", "count"},
	{"hsgraph.inc.cache_mb", "MB"},
	{"bounds.eval_s", "s"},
	{"topo.start_graph_s", "s"},
	{"topo.relabel_s", "s"},
	{"simnet.network_s", "s"},
	{"mpi.run_s.CG", "s"},
	{"mpi.run_s.IS", "s"},
	{"mpi.run_s.MG", "s"},
	{"simnet.flows.CG", "count"},
	{"simnet.flows.IS", "count"},
	{"simnet.flows.MG", "count"},
	{"simnet.flows_per_s", "1/s"},
	{"npb.elapsed_s.CG", "s"},
	{"npb.elapsed_s.IS", "s"},
	{"npb.elapsed_s.MG", "s"},
	{"partition.kway_s", "s"},
	{"partition.cut_edges", "count"},
	{"phys.evaluate_s", "s"},
	{"phys.cost_usd", "USD"},
	{"phys.power_w", "W"},
	{"bench.trace_overhead", "ratio"},
	{"bench.span_coverage", "ratio"},
}

// deterministic lists the metrics that depend only on the workload and
// the seed, never on timing: two runs with equal inputs must report them
// bit-identically.
var deterministic = map[string]bool{
	"haspl_gap":                          true,
	"npb_mops":                           true,
	"opt.accept_ratio.swing":             true,
	"opt.accept_ratio.counter":           true,
	"opt.accept_ratio.swap":              true,
	"opt.best_snapshots":                 true,
	"hsgraph.inc.swept_sources_per_move": true,
	"hsgraph.inc.dirty_frac":             true,
	"hsgraph.inc.peek_reuse_ratio":       true,
	"hsgraph.inc.full_rebuilds":          true,
	"hsgraph.inc.peek_store_skips":       true,
	"hsgraph.inc.cache_mb":               true,
	"simnet.flows.CG":                    true,
	"simnet.flows.IS":                    true,
	"simnet.flows.MG":                    true,
	"npb.elapsed_s.CG":                   true,
	"npb.elapsed_s.IS":                   true,
	"npb.elapsed_s.MG":                   true,
	"partition.cut_edges":                true,
	"phys.cost_usd":                      true,
	"phys.power_w":                       true,
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// samples collects raw per-operation values by metric name.
type samples map[string][]float64

func (s samples) add(name string, v float64) { s[name] = append(s[name], v) }

// emit fills every metric of defs, taking the median of the collected
// samples (0 for a layer the workload never reached).
func emit(defs []metricDef, s samples) map[string]metric {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		out[d.name] = metric{Value: median(s[d.name]), Unit: d.unit}
	}
	return out
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	if len(c)%2 == 1 {
		return c[len(c)/2]
	}
	return (c[len(c)/2-1] + c[len(c)/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// ratio is num/den, 0 when den is 0 (a counter the workload never hit).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
