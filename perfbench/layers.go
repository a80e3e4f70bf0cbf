package main

import (
	"fmt"

	"repro/internal/obs"
)

// Sample series shared by the workloads. Layer series carry the name of
// the per-layer metric whose median they become.
const (
	seriesExplore       = "explore_ms"        // client latency, untraced
	seriesExploreTraced = "explore_traced_ms" // client latency, traced
)

// explainLayers maps explain stage names to the per-layer metric their
// inclusive wall time feeds.
var explainLayers = map[string]string{
	obs.SpanMine:      "fpm.mine_ms",
	obs.SpanMineScan:  "fpm.mine.scan_ms",
	obs.SpanMineBuild: "fpm.mine.build_ms",
	obs.SpanMineGrow:  "fpm.mine.grow_ms",
	obs.SpanRank:      "core.rank_ms",
}

// addExplain samples one operation's cost profile into the layer series:
// mining stage times, rank time, mining counts, shard and worker balance,
// pool hit rate and universe size. clientMS, when positive, is the
// client-side latency of the request the profile describes; the part of
// it the handler's spans do not cover is the unattributed remainder.
func (r *run) addExplain(ex *obs.Explain, clientMS float64) {
	stageMS := map[string]float64{}
	for _, st := range ex.Stages {
		if name, ok := explainLayers[st.Name]; ok {
			stageMS[name] += float64(st.TotalNS) / 1e6
		}
	}
	for _, name := range explainLayers {
		r.sample(name, stageMS[name])
	}
	r.sample("fpm.candidates", float64(ex.Mining.Candidates))
	r.sample("fpm.itemsets", float64(ex.Mining.Itemsets))
	if len(ex.Shards) > 0 {
		r.sample("engine.shards", float64(len(ex.Shards)))
		r.sample("engine.shard_skew", ex.ShardSkew)
	}
	if busy := workerBalance(ex.Workers); busy > 0 {
		r.sample("engine.worker_busy_ratio", busy)
	}
	if m := ex.Memory; m != nil {
		r.sample("engine.pool_hit_ratio", m.PoolHitRate)
		r.sample("fpm.universe_bytes", float64(m.UniverseBytes))
	}
	if clientMS > 0 {
		handler := float64(ex.TotalNS) / 1e6
		r.sample("server.handler_ms", handler)
		r.sample("server.unattributed_ms", clientMS-handler)
	}
}

// workerBalance is the mean worker's task count over the busiest one's:
// 1 when the pool's workers shared the tasks evenly, 1/n when one worker
// did everything; 0 without workers.
func workerBalance(ws []obs.ExplainWorker) float64 {
	var sum, top int64
	for _, w := range ws {
		sum += w.Tasks
		top = max(top, w.Tasks)
	}
	if top == 0 {
		return 0
	}
	return float64(sum) / float64(len(ws)) / float64(top)
}

// spanLayers maps the benchmark's own span names to the per-layer
// metric their self time feeds, with the factor from milliseconds to the
// metric's unit.
var spanLayers = map[string]struct {
	metric string
	scale  float64
}{
	"dataset.read_csv":    {"dataset.read_csv_ms", 1},
	"dataset.parse_batch": {"dataset.parse_batch_us", 1000},
	"discretize.tree_set": {"discretize.tree_set_ms", 1},
	"discretize.ks_drift": {"discretize.ks_drift_us", 1000},
	"fpm.universe_build":  {"fpm.universe_build_ms", 1},
	"fpm.append_universe": {"fpm.append_universe_ms", 1},
	"core.write_csv":      {"core.write_csv_ms", 1},
	"core.marshal_json":   {"core.marshal_json_ms", 1},
}

// setLayerMedians sets every per-layer metric: span-timed layers to the
// median self time of their spans, the others to the median of their
// samples, and a layer the workload does not load to 0.
func (r *run) setLayerMedians() {
	for name, self := range r.spans.selfMS() {
		if l, ok := spanLayers[name]; ok {
			r.values[l.metric] = median(self) * l.scale
		}
	}
	for _, m := range perLayer {
		if _, ok := r.values[m.Name]; ok {
			continue
		}
		if s := r.series(m.Name); len(s) > 0 {
			r.values[m.Name] = median(s)
		} else {
			r.values[m.Name] = 0
		}
	}
}

// setTraceOverhead reports traced over untraced median latency of the
// workload's traced operation.
func (r *run) setTraceOverhead(untraced, traced string) error {
	u, t := r.series(untraced), r.series(traced)
	if len(u) == 0 || len(t) == 0 {
		return fmt.Errorf("trace overhead needs both traced and untraced samples (have %d and %d)", len(t), len(u))
	}
	r.values["obs.trace_overhead_ratio"] = median(t) / median(u)
	return nil
}
