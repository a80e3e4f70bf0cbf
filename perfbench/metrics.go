package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
)

// metricSpec declares one reported metric. The lists below are the
// benchmark's contract: BENCHMARK.json names exactly these, and a run
// prints every one of them (end-to-end without tracing, per-layer with).
type metricSpec struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression.
	Bound float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the system sees. Every workload
// reports every one; README.md tabulates what each means per workload.
// The timing bounds are wide because the reference host is: a 2-CPU
// virtual machine whose CPU speed drifts by 5-10% over a minute, which
// sets the floor for run-to-run spread (README.md, Steadiness).
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"explore_p50_ms", "ms", "lower", 0.25},
	{"explore_tail_ms", "ms", "lower", 0.25},
	{"explore_per_s", "1/s", "higher", 0.25},
	{"op_p50_ms", "ms", "lower", 0.25},
	{"alloc_mb_per_op", "MB", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.15},
	{"ok_ratio", "ratio", "higher", 0.01},
}

// perLayer are the traced run's metrics, one or more per module. A layer
// a workload does not exercise reports 0.
var perLayer = []metricSpec{
	{Name: "dataset.read_csv_ms", Unit: "ms", Better: "lower"},
	{Name: "dataset.parse_batch_us", Unit: "us", Better: "lower"},
	{Name: "discretize.tree_set_ms", Unit: "ms", Better: "lower"},
	{Name: "discretize.ks_drift_us", Unit: "us", Better: "lower"},
	{Name: "fpm.universe_build_ms", Unit: "ms", Better: "lower"},
	{Name: "fpm.append_universe_ms", Unit: "ms", Better: "lower"},
	{Name: "fpm.universe_bytes", Unit: "bytes", Better: "lower"},
	{Name: "fpm.mine_ms", Unit: "ms", Better: "lower"},
	{Name: "fpm.mine.scan_ms", Unit: "ms", Better: "lower"},
	{Name: "fpm.mine.build_ms", Unit: "ms", Better: "lower"},
	{Name: "fpm.mine.grow_ms", Unit: "ms", Better: "lower"},
	{Name: "fpm.candidates", Unit: "count", Better: "lower"},
	{Name: "fpm.itemsets", Unit: "count", Better: "lower"},
	{Name: "engine.shards", Unit: "count", Better: "higher"},
	{Name: "engine.shard_skew", Unit: "ratio", Better: "lower"},
	{Name: "engine.worker_busy_ratio", Unit: "ratio", Better: "higher"},
	{Name: "engine.pool_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "core.rank_ms", Unit: "ms", Better: "lower"},
	{Name: "core.subgroups", Unit: "count", Better: "higher"},
	{Name: "core.write_csv_ms", Unit: "ms", Better: "lower"},
	{Name: "core.marshal_json_ms", Unit: "ms", Better: "lower"},
	{Name: "core.reply_bytes", Unit: "bytes", Better: "lower"},
	{Name: "server.handler_ms", Unit: "ms", Better: "lower"},
	{Name: "server.unattributed_ms", Unit: "ms", Better: "lower"},
	{Name: "server.cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "server.universe_incremental_ratio", Unit: "ratio", Better: "higher"},
	{Name: "server.drift_remines", Unit: "count", Better: "higher"},
	{Name: "server.rejected_ratio", Unit: "ratio", Better: "lower"},
	{Name: "wal.fsync_mean_ms", Unit: "ms", Better: "lower"},
	{Name: "wal.records_per_fsync", Unit: "count", Better: "higher"},
	{Name: "wal.snapshots_written", Unit: "count", Better: "lower"},
	{Name: "wal.replayed_records_per_s", Unit: "1/s", Better: "higher"},
	{Name: "runtime.gc_cycles_per_op", Unit: "count", Better: "lower"},
	{Name: "obs.trace_overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "loadgen.late_p99_ms", Unit: "ms", Better: "lower"},
}

// nameRE is the metric-name grammar.
var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// unitRE is the unit grammar.
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// specsFor returns the metrics a run reports: per-layer when traced,
// end-to-end otherwise.
func specsFor(trace bool) []metricSpec {
	if trace {
		return perLayer
	}
	return endToEnd
}

// metricValue is one reported metric in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line the benchmark prints.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// buildResultLine assembles the result from the run's values for every
// declared metric. A declared metric the workload did not set, or a
// non-finite value, is an error: the contract is that every name prints.
func buildResultLine(specs []metricSpec, values map[string]float64, attempted, failed int, correct bool) (resultLine, error) {
	line := resultLine{Correct: correct, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	for _, s := range specs {
		v, ok := values[s.Name]
		if !ok {
			return line, fmt.Errorf("metric %s was not measured", s.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return line, fmt.Errorf("metric %s is not finite (%v)", s.Name, v)
		}
		line.Metrics[s.Name] = metricValue{Value: v, Unit: s.Unit}
	}
	var extra []string
	for name := range values {
		if !hasSpec(specs, name) {
			extra = append(extra, name)
		}
	}
	if len(extra) > 0 {
		sort.Strings(extra)
		return line, fmt.Errorf("undeclared metrics %v", extra)
	}
	return line, nil
}

func hasSpec(specs []metricSpec, name string) bool {
	for _, s := range specs {
		if s.Name == name {
			return true
		}
	}
	return false
}
