package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/discretize"
	"repro/internal/fpm"
	"repro/internal/hierarchy"
	"repro/internal/obs"
	"repro/internal/outcome"
)

// explorePlan is one exploration's parameters, with the daemon's
// defaults for everything a request leaves out.
type explorePlan struct {
	stat, actual, predicted, target string
	st, s                           float64
	workers                         int
}

// compasPlan is the served workloads' request for one statistic.
func compasPlan(stat string) explorePlan {
	return explorePlan{stat: stat, actual: "label", predicted: "prediction", st: 0.1, s: 0.05}
}

// libraryBuild is what the daemon caches per universe-cache key: the
// statistic's outcome, the item hierarchies and the packed universe.
type libraryBuild struct {
	out *outcome.Outcome
	hs  *hierarchy.Set
	u   *fpm.Universe
}

// libraryUniverse builds what the daemon builds on a cache miss, calling
// each layer's public function in turn and timing each call as a span
// under parent: BuildStatistic → TreeSet plus flat categorical
// hierarchies → GeneralizedUniverse. The tracer (nil when untraced)
// passes through to the discretizer. It returns the build and each
// stage's wall time in milliseconds by span name.
func libraryUniverse(tab *dataset.Table, p explorePlan, rec *recorder, parent int, op int64, tracer *obs.Tracer) (libraryBuild, map[string]float64, error) {
	var b libraryBuild
	var excludes []string
	var err error
	ms := map[string]float64{}
	ms["core.build_statistic"] = rec.stage("core.build_statistic", parent, op, func() {
		b.out, excludes, err = core.BuildStatistic(tab, p.stat, p.actual, p.predicted, p.target)
	})
	if err != nil {
		return b, nil, err
	}
	ms["discretize.tree_set"] = rec.stage("discretize.tree_set", parent, op, func() {
		b.hs, err = discretize.TreeSet(tab, b.out, discretize.TreeOptions{
			Criterion:  discretize.DivergenceGain,
			MinSupport: p.st,
			Tracer:     tracer,
		}, excludes...)
		if err != nil {
			return
		}
		skip := map[string]bool{}
		for _, x := range excludes {
			skip[x] = true
		}
		for _, f := range tab.Fields() {
			if f.Kind == dataset.Categorical && !skip[f.Name] {
				b.hs.Add(hierarchy.FlatCategorical(tab, f.Name))
			}
		}
	})
	if err != nil {
		return b, nil, err
	}
	ms["fpm.universe_build"] = rec.stage("fpm.universe_build", parent, op, func() {
		b.u = fpm.GeneralizedUniverse(tab, b.hs, b.out)
	})
	return b, ms, nil
}

// libraryExplore is libraryUniverse followed by the mining and ranking
// call, ExploreUniverseMultiContext, timed as core.explore. The explain
// flag passes through. It returns the full ranked report and the stage
// times.
func libraryExplore(ctx context.Context, tab *dataset.Table, p explorePlan, rec *recorder, parent int, op int64, tracer *obs.Tracer, explain bool) (*core.Report, map[string]float64, error) {
	b, ms, err := libraryUniverse(tab, p, rec, parent, op, tracer)
	if err != nil {
		return nil, nil, err
	}
	var reps []*core.Report
	ms["core.explore"] = rec.stage("core.explore", parent, op, func() {
		reps, err = core.ExploreUniverseMultiContext(ctx, b.u, core.Config{
			Hierarchies: b.hs,
			MinSupport:  p.s,
			Algorithm:   fpm.FPGrowth,
			Mode:        core.Hierarchical,
			Workers:     p.workers,
			Tracer:      tracer,
			Explain:     explain,
		}, outcome.Single(b.out))
	})
	if err != nil {
		return nil, nil, err
	}
	return reps[0], ms, nil
}

// readCSVTimed loads a CSV input the way the daemon does, as one
// dataset.read_csv span under parent.
func readCSVTimed(rec *recorder, parent int, op int64, path string, tracer *obs.Tracer) (*dataset.Table, error) {
	var tab *dataset.Table
	var err error
	rec.stage("dataset.read_csv", parent, op, func() {
		tab, err = dataset.ReadCSVFile(path, dataset.CSVOptions{Tracer: tracer})
	})
	if err != nil {
		return nil, fmt.Errorf("reading %s: %w", path, err)
	}
	return tab, nil
}

// encodeTimed renders the top k subgroups of a report (all of them when k
// is 0) the two ways the system hands a report out: CSV, and indented
// JSON as the daemon encodes replies, each as a span under parent. It
// returns the CSV and the JSON's length.
func encodeTimed(rec *recorder, parent int, op int64, rep *core.Report, k int) ([]byte, int, error) {
	cut := *rep
	if k > 0 {
		cut.Subgroups = rep.TopK(k)
	}
	var buf bytes.Buffer
	var err error
	rec.stage("core.write_csv", parent, op, func() { err = cut.WriteCSV(&buf) })
	if err != nil {
		return nil, 0, err
	}
	var raw []byte
	rec.stage("core.marshal_json", parent, op, func() { raw, err = json.MarshalIndent(&cut, "", "  ") })
	if err != nil {
		return nil, 0, err
	}
	return buf.Bytes(), len(raw), nil
}

// firstDiff describes where two byte strings first differ, for check
// failure messages.
func firstDiff(a, b []byte) string {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			lo := max(0, i-40)
			return fmt.Sprintf("first difference at byte %d: %q vs %q", i, a[lo:min(len(a), i+40)], b[lo:min(len(b), i+40)])
		}
	}
	return fmt.Sprintf("lengths %d vs %d", len(a), len(b))
}
