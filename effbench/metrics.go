package main

import (
	"encoding/json"
	"fmt"
	"io"
)

// metricDef is one reported metric: name and unit, as BENCHMARK.json
// lists them.
type metricDef struct {
	Name string
	Unit string
}

// endToEnd are the metrics of an untraced run, printed for every
// workload (README.md says what each one measures on each workload).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"sweep_cpu_s", "s"},
	{"op_cpu_geomean_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

// opMetrics turns a run's set-up times and the median CPU times (ms) of
// its operations, one per distinct operation, into the end-to-end
// metrics.
func opMetrics(setups, opMedians []float64, peakRSS float64) map[string]float64 {
	return map[string]float64{
		"setup_s":           median(setups),
		"sweep_cpu_s":       sum(opMedians) / 1000,
		"op_cpu_geomean_ms": geomean(opMedians),
		"peak_rss_mb":       peakRSS,
	}
}

// savinaNames are the Fig. 8 benchmarks, each with its own
// runtime.run_ms.<name> metric.
var savinaNames = []string{"chameneos", "counting", "fjc", "fjt", "pingpong", "ring", "streamring"}

// perLayer are the metrics of a traced run. A workload that does not
// reach a layer reports that layer's metrics as 0 (times and counts) or
// 1 (ratios of reduced to full work).
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"lts.explore_ms", "ms"},
		{"lts.states_per_s", "1/s"},
		{"lts.alloc_bytes_per_state", "B"},
		{"types.interned", "count"},
		{"typelts.memos", "count"},
		{"lts.symmetry_detect_ms", "ms"},
		{"lts.orbit_ratio", "ratio"},
		{"lts.symmetry_engaged", "count"},
		{"lts.por_explore_ms", "ms"},
		{"lts.ample_ratio", "ratio"},
		{"lts.minimize_ms", "ms"},
		{"lts.blocks", "count"},
		{"lts.quotient_ratio", "ratio"},
		{"mucalc.translate_ms", "ms"},
		{"mucalc.automaton_states", "count"},
		{"mucalc.check_ms", "ms"},
		{"mucalc.product_states", "count"},
		{"verify.admit_ms", "ms"},
		{"verify.compile_ms", "ms"},
		{"verify.overlap_ratio", "ratio"},
		{"verify.lift_ms", "ms"},
		{"verify.replay_ms", "ms"},
		{"verify.witness_steps", "count"},
		{"effpi.witness_encode_ms", "ms"},
		{"effpi.witness_bytes", "B"},
		{"effpi.workspace_memos", "count"},
		{"effpi.workspace_evictions", "count"},
		{"syntax.parse_ms", "ms"},
		{"typecheck.infer_ms", "ms"},
		{"frontend.extract_ms", "ms"},
		{"frontend.diagnostics", "count"},
		{"effpid.latency_p50_ms", "ms"},
		{"effpid.latency_p95_ms", "ms"},
		{"effpid.latency_p95_light_ms", "ms"},
		{"effpid.goodput_rps", "1/s"},
		{"effpid.server_ms", "ms"},
		{"effpid.overhead_ms", "ms"},
		{"effpid.response_bytes", "B"},
		{"effpid.queue_high_water", "count"},
		{"effpid.rejections", "count"},
	}
	for _, n := range savinaNames {
		defs = append(defs, metricDef{"runtime.run_ms." + n, "ms"})
	}
	return append(defs,
		metricDef{"runtime.gc_count", "count"},
		metricDef{"runtime.peak_heap_mb", "MB"},
		metricDef{"gen.lag_ms", "ms"},
		metricDef{"bench.sweep_wall_s", "s"},
		metricDef{"trace.overhead_ratio", "ratio"},
		metricDef{"trace.uncovered_ratio", "ratio"},
	)
}()

// result is the last line the benchmark prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// emptyPerLayer returns the per-layer values of a workload that reaches
// no layer at all: 0 for times and counts, 1 for reduced/full ratios.
func emptyPerLayer() map[string]float64 {
	vals := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		vals[d.Name] = 0
		if d.Unit == "ratio" {
			vals[d.Name] = 1
		}
	}
	vals["trace.uncovered_ratio"] = 0
	vals["verify.overlap_ratio"] = 0
	return vals
}

// writeResult prints the result line for the given metric set. It fails
// when a listed metric is missing or an unlisted one is present, so a
// workload can never silently drop a metric.
func writeResult(w io.Writer, defs []metricDef, vals map[string]float64, g *gate) error {
	res := result{Correct: g.failed == 0, Attempted: g.attempted, Failed: g.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.Name)
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	if len(vals) != len(defs) {
		return fmt.Errorf("%d metrics measured, %d listed", len(vals), len(defs))
	}
	if res.Attempted < 1 {
		return fmt.Errorf("no operation was attempted")
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
