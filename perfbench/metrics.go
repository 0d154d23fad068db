package main

import "fmt"

// metricDef names one reported metric and its unit. The two tables below
// are the benchmark's vocabulary; BENCHMARK.json at the repository root
// lists the same names and units (the smoke test checks that they agree).
type metricDef struct {
	Name string
	Unit string
}

// endToEnd are reported by every untraced run (--trace 0).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"runs_per_s", "1/s"},
	{"sim_s_mean", "sim_s"},
	{"ok_frac", "frac"},
	{"peak_rss_mb", "MB"},
	{"campaign_p50_s", "s"},
	{"campaign_p99_s", "s"},
	{"read_p50_s", "s"},
	{"read_p99_s", "s"},
}

// phases are the pipeline steps in the order core reports them.
var phases = []string{"calibrate", "coarse", "partition", "resolve", "fine"}

// perLayer are reported by every traced run (--trace 1). A layer the
// workload does not reach through the benchmark's own call boundaries
// reports 0 there (see README.md).
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"machine.new_s", "s"},
		{"source.open_s", "s"},
		{"target.measure_pair_calls", "count"},
		{"target.measure_pair_s", "s"},
		{"target.measure_pair_ns", "ns"},
	}
	for _, p := range phases {
		defs = append(defs,
			metricDef{fmt.Sprintf("core.%s_s", p), "s"},
			metricDef{fmt.Sprintf("core.%s_self_s", p), "s"},
			metricDef{fmt.Sprintf("core.%s_measurements", p), "count"},
			metricDef{fmt.Sprintf("core.%s_sim_s", p), "sim_s"},
		)
	}
	return append(defs,
		metricDef{"trace.record_s", "s"},
		metricDef{"trace.bytes", "bytes"},
		metricDef{"trace.decode_s", "s"},
		metricDef{"engine.run_s", "s"},
		metricDef{"engine.glue_s", "s"},
		metricDef{"http.post_campaign_s", "s"},
		metricDef{"queue.wal_append_s", "s"},
		metricDef{"queue.wal_fsync_s", "s"},
		metricDef{"scheduler.wait_s", "s"},
		metricDef{"http.get_mapping_200_s", "s"},
		metricDef{"http.get_mapping_304_s", "s"},
		metricDef{"http.get_mapping_404_s", "s"},
		metricDef{"store.hit_ratio", "frac"},
		metricDef{"store.computes", "count"},
		metricDef{"store.disk_read_s", "s"},
		metricDef{"store.disk_write_s", "s"},
		metricDef{"store.negative_cache_hits", "count"},
		metricDef{"go.gc_runs", "count"},
		metricDef{"go.gc_pause_s", "s"},
		metricDef{"bench.tracing_overhead", "frac"},
	)
}()

// metricValue is one reported metric as the result line prints it.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects one run's metrics with their sample counts.
type report struct {
	values  map[string]float64
	samples map[string]int
}

func newReport() *report {
	return &report{values: map[string]float64{}, samples: map[string]int{}}
}

// set records a metric and the number of samples behind it.
func (r *report) set(name string, v float64, samples int) {
	r.values[name] = v
	r.samples[name] = samples
}

// zero records a per-layer metric the workload does not reach.
func (r *report) zero(names ...string) {
	for _, n := range names {
		r.set(n, 0, 0)
	}
}

// render returns the metrics of defs in result-line form; a name missing
// from the report is an error, since the result line must carry each.
func (r *report) render(defs []metricDef) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := r.values[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return out, nil
}
