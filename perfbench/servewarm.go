package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Shared served-workload settings.
const (
	topK        = 10                     // subgroups per served reply
	rounds      = 5                      // set-ups per run; each measures a share of the window
	clients     = 2                      // load connections: nproc on the reference host
	warmup      = 500 * time.Millisecond // untimed load after each set-up
	sliceLen    = time.Second            // traced runs alternate untraced and traced slices of this length
	explainRate = 0.25                   // share of traced requests whose explain profile is fetched
	readyLimit  = 2 * time.Minute        // longest wait for /readyz
)

// warmStats are the statistics serve-warm rotates through. With the
// tables it serves they make tables×3 universe-cache keys, all built
// during set-up.
var warmStats = []string{"fpr", "fnr", "error"}

// exploreBody is the JSON /v1/explore request for one dataset and
// statistic.
func exploreBody(dataset, stat, format string) []byte {
	req := map[string]any{
		"dataset": dataset, "stat": stat, "actual": "label", "predicted": "prediction",
		"s": 0.05, "top": topK,
	}
	if format != "" {
		req["format"] = format
	}
	raw, _ := json.Marshal(req) // a map of strings and numbers always marshals
	return raw
}

// counterDeltas sums /metrics counter changes over the measured windows
// of several daemons.
type counterDeltas map[string]float64

func (c counterDeltas) add(before, after map[string]float64) {
	for name, v := range after {
		c[name] += v - before[name]
	}
}

// serveWarm: the daemon serves compas tables of 20,000 rows from a warm
// universe cache while two closed-loop clients explore them. Each of the
// run's rounds starts a daemon, builds every universe (set-up), warms up,
// and measures its share of the window.
func serveWarm(ctx context.Context, r *run, bin string) error {
	var args []string
	var names []string
	var bodies [][]byte
	for k := 0; k < tables; k++ {
		name := fmt.Sprintf("compas%d", k)
		names = append(names, name)
		args = append(args, "-dataset", name+"="+filepath.Join(r.dir, name+".csv"))
		for _, st := range warmStats {
			bodies = append(bodies, exploreBody(name, st, ""))
		}
	}
	deltas := counterDeltas{}
	var rss []float64
	ops := 0.0
	share := time.Duration(r.seconds / rounds * float64(time.Second))
	for round := 0; round < rounds; round++ {
		r.round = round
		d, err := r.warmRound(ctx, bin, round, args, bodies, share, deltas, &ops)
		if err == nil {
			var peak float64
			if peak, err = d.peakRSSMB(); err == nil {
				rss = append(rss, peak)
			}
		}
		if err == nil && round == rounds-1 {
			err = r.checkWarmReplies(ctx, d, names)
		}
		if d != nil {
			if stopErr := d.stop(); err == nil && stopErr != nil {
				err = fmt.Errorf("stopping daemon: %w", stopErr)
			}
		}
		if err != nil {
			return err
		}
	}
	r.details["explores"] = ops

	if r.trace {
		r.serverLayers(deltas, ops)
		return r.setTraceOverhead(seriesExplore, seriesExploreTraced)
	}
	if err := r.setLatency("explore", seriesExplore, tailWant); err != nil {
		return err
	}
	r.values["op_p50_ms"] = r.values["explore_p50_ms"]
	r.setRate("explore_per_s", seriesExplore, share)
	r.values["setup_s"] = median(r.series("setup_s"))
	r.values["alloc_mb_per_op"] = deltas["go_gc_heap_allocs_bytes"] / ops / 1e6
	r.values["peak_rss_mb"] = median(rss)
	return nil
}

// warmRound runs one serve-warm round and returns its daemon, still
// running, for the caller to inspect and stop.
func (r *run) warmRound(ctx context.Context, bin string, round int, args []string, bodies [][]byte, share time.Duration, deltas counterDeltas, ops *float64) (*daemon, error) {
	t0 := time.Now()
	d, err := startDaemon(ctx, bin, filepath.Join(r.dir, fmt.Sprintf("daemon-%d.log", round)), args...)
	if err != nil {
		return nil, err
	}
	if err := d.waitReady(ctx, readyLimit); err != nil {
		return d, err
	}
	for _, b := range bodies {
		status, reply, _, err := d.do(ctx, "POST", "/v1/explore", b, nil)
		if reason := classifyExplore(status, reply, err, topK); reason != "" {
			return d, fmt.Errorf("set-up explore %s failed (%s): status %d, err %v", b, reason, status, err)
		}
	}
	r.sample("setup_s", time.Since(t0).Seconds())

	closedLoop(ctx, clients, time.Now().Add(warmup), func(c int, k int64) {
		_, _, _, _ = d.do(ctx, "POST", "/v1/explore", bodies[k%int64(len(bodies))], nil) // warm-up: unchecked, uncounted
	})
	m0, err := d.metrics(ctx)
	if err != nil {
		return d, err
	}
	before := len(r.series(seriesExplore)) + len(r.series(seriesExploreTraced))
	r.spans.setOn(r.trace)
	start := time.Now()
	rngs := make([]*rand.Rand, clients)
	for c := range rngs {
		rngs[c] = rand.New(rand.NewSource(r.seed*1000 + int64(round*clients+c)))
	}
	closedLoop(ctx, clients, start.Add(share), func(c int, k int64) {
		traced := r.trace && int(time.Since(start)/sliceLen)%2 == 1
		id := fmt.Sprintf("sw-%d-%d-%d", r.seed, round, k)
		r.exploreOnce(ctx, d, bodies[k%int64(len(bodies))], id, k, traced, rngs[c])
	})
	r.spans.setOn(false)
	if err := ctx.Err(); err != nil {
		return d, err
	}
	m1, err := d.metrics(ctx)
	if err != nil {
		return d, err
	}
	deltas.add(m0, m1)
	*ops += float64(len(r.series(seriesExplore)) + len(r.series(seriesExploreTraced)) - before)
	return d, nil
}

// closedLoop runs n clients until the deadline; each calls fn with its
// index and a request number shared across clients, and sends its next
// request only once the previous one returned.
func closedLoop(ctx context.Context, n int, until time.Time, fn func(client int, k int64)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for ctx.Err() == nil && time.Now().Before(until) {
				fn(c, next.Add(1)-1)
			}
		}(c)
	}
	wg.Wait()
}

// exploreOnce sends one JSON explore and accounts for it, returning the
// dataset epoch it ran on ("" on failure). A traced request is timed as
// a client span and, for a seeded share of requests, followed by a fetch
// of its explain profile.
func (r *run) exploreOnce(ctx context.Context, d *daemon, body []byte, id string, op int64, traced bool, rng *rand.Rand) string {
	sp := -1
	if traced {
		sp = r.spans.start("client.explore", -1, op)
	}
	t0 := time.Now()
	status, reply, hdr, err := d.do(ctx, "POST", "/v1/explore", body, map[string]string{"X-Request-ID": id})
	ms := float64(time.Since(t0).Nanoseconds()) / 1e6
	r.spans.end(sp)
	if ctx.Err() != nil {
		return "" // the run is being torn down; not the daemon's failure
	}
	reason := classifyExplore(status, reply, err, topK)
	r.op(reason)
	if reason != "" {
		return ""
	}
	if !traced {
		r.sample(seriesExplore, ms)
		return hdr.Get("X-Dataset-Epoch")
	}
	r.sample(seriesExploreTraced, ms)
	r.sample("core.reply_bytes", float64(len(reply)))
	r.sample("core.subgroups", float64(topK))
	if rng.Float64() < explainRate {
		es := r.spans.start("client.explain", -1, op)
		status, raw, _, err := d.do(ctx, "GET", "/v1/explain/"+id, nil, nil)
		r.spans.end(es)
		var ex obs.Explain
		if err == nil && status == 200 && json.Unmarshal(raw, &ex) == nil {
			r.addExplain(&ex, ms)
		} else if ctx.Err() == nil {
			r.op(failStatus)
		}
	}
	return hdr.Get("X-Dataset-Epoch")
}

// setLatency sets <name>_p50_ms and <name>_tail_ms from a sample series:
// the median over rounds of each round's median and tail. A round's tail
// is at want, or the highest lower percentile its sample count supports,
// but never below its median.
func (r *run) setLatency(name, series string, want float64) error {
	all := r.series(series)
	if len(all) == 0 {
		return fmt.Errorf("no %s samples", name)
	}
	r.values[name+"_p50_ms"] = r.perRound(series, median)
	r.values[name+"_tail_ms"] = r.perRound(series, func(s []float64) float64 {
		return percentile(sortedCopy(s), max(tailPercentile(len(s), want), 0.5))
	})
	r.details[name+"_samples"] = float64(len(all))
	if beyond(len(all), 0.99) >= minBeyond {
		r.details[name+"_p99_ms"] = percentile(sortedCopy(all), 0.99)
	}
	return nil
}

// setRate sets metric to the median over rounds of a series' sample
// count per second of each round's share of the window.
func (r *run) setRate(metric, series string, share time.Duration) {
	r.values[metric] = r.perRound(series, func(s []float64) float64 { return float64(len(s)) / share.Seconds() })
}

// serverLayers derives the server, WAL and runtime layer metrics from
// /metrics counter deltas over the measured windows; ops is the
// operations completed in them.
func (r *run) serverLayers(d counterDeltas, ops float64) {
	hits, misses := d["server_universe_cache_hits"], d["server_universe_cache_misses"]
	incremental := d["server_universe_builds_incremental"]
	r.values["server.cache_hit_ratio"] = ratio(hits, hits+misses)
	r.values["server.universe_incremental_ratio"] = ratio(incremental, incremental+d["server_universe_builds_rediscretized"])
	r.values["server.drift_remines"] = d["server_drift_remines"]
	r.values["server.rejected_ratio"] = ratio(d["server_rejected_saturated"], d["server_requests_explore"])
	fsyncs := d["wal_fsync_seconds_count"]
	r.values["wal.fsync_mean_ms"] = ratio(d["wal_fsync_seconds_sum"]*1000, fsyncs)
	r.values["wal.records_per_fsync"] = ratio(d["wal_records_appended"], fsyncs)
	r.values["wal.snapshots_written"] = d["wal_snapshots_written"]
	r.values["runtime.gc_cycles_per_op"] = ratio(d["go_gc_cycles"], ops)
}

// checkWarmReplies compares, for every table and statistic, the daemon's
// format=csv reply byte for byte with the library path over the same
// generated table. It runs after the timed window; in a traced run its
// calls into each layer feed the read, discretize, universe and encoding
// metrics.
func (r *run) checkWarmReplies(ctx context.Context, d *daemon, names []string) error {
	var tracer *obs.Tracer
	if r.trace {
		tracer = obs.New()
	}
	r.spans.setOn(r.trace)
	defer r.spans.setOn(false)
	for _, name := range names {
		tab, err := readCSVTimed(r.spans, -1, -1, filepath.Join(r.dir, name+".csv"), tracer)
		if err != nil {
			return err
		}
		for _, st := range warmStats {
			check := "csv-equal-library/" + name + "/" + st
			status, got, _, err := d.do(ctx, "POST", "/v1/explore", exploreBody(name, st, "csv"), nil)
			if err != nil || status != 200 {
				r.check(check, fmt.Errorf("status %d, err %v", status, err))
				continue
			}
			rep, _, err := libraryExplore(ctx, tab, compasPlan(st), r.spans, -1, -1, tracer, false)
			if err != nil {
				return err
			}
			want, _, err := encodeTimed(r.spans, -1, -1, rep, topK)
			if err != nil {
				return err
			}
			if string(got) != string(want) {
				r.check(check, fmt.Errorf("reply differs from library: %s", firstDiff(got, want)))
				continue
			}
			r.check(check, nil)
		}
	}
	return nil
}
