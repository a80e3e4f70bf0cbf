package main

import (
	"bytes"
	"errors"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/benchfmt"
)

// defaults mirrors the -metrics default for tests exercising the classic
// microbenchmark comparison.
var defaults = splitList(defaultMetrics)

// writeBench writes a benchfmt artifact with the given per-benchmark
// metrics and returns its path.
func writeBench(t *testing.T, name string, benches map[string]map[string]float64) string {
	t.Helper()
	return writeBenchAborted(t, name, benches, false)
}

func writeBenchAborted(t *testing.T, name string, benches map[string]map[string]float64, aborted bool) string {
	t.Helper()
	f := benchfmt.Output{Aborted: aborted}
	for bname, metrics := range benches {
		f.Benchmarks = append(f.Benchmarks, benchfmt.Benchmark{
			Package: "repro", Name: bname, Metrics: metrics,
		})
	}
	path := filepath.Join(t.TempDir(), name)
	if err := benchfmt.WriteFile(path, f); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestRunAllocRegression pins the satellite contract: a watched benchmark
// whose B/op grows past -alloc-threshold warns even when its ns/op is
// fine, unwatched benchmarks never warn, and the exit stays advisory
// (nil error).
func TestRunAllocRegression(t *testing.T) {
	oldPath := writeBench(t, "old.json", map[string]map[string]float64{
		"BenchmarkTable3":    {"ns/op": 100, "B/op": 1000, "allocs/op": 10},
		"BenchmarkUnrelated": {"ns/op": 100, "B/op": 50},
	})
	newPath := writeBench(t, "new.json", map[string]map[string]float64{
		"BenchmarkTable3":    {"ns/op": 150, "B/op": 2500, "allocs/op": 12},
		"BenchmarkUnrelated": {"ns/op": 1000, "B/op": 500},
	})
	var out bytes.Buffer
	regs, err := run(&out, oldPath, newPath, []string{"BenchmarkTable3"}, defaults, 2.0, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	if regs != 1 {
		t.Errorf("run returned %d regressions, want 1 (the -strict exit signal)", regs)
	}
	s := out.String()
	if !strings.Contains(s, "::warning title=benchmark regression::repro/BenchmarkTable3 B/op grew 2.50x") {
		t.Errorf("no B/op regression warning:\n%s", s)
	}
	if strings.Contains(s, "BenchmarkTable3 ns/op grew") || strings.Contains(s, "allocs/op grew") {
		t.Errorf("warned on metrics inside their threshold:\n%s", s)
	}
	if strings.Contains(s, "BenchmarkUnrelated ns/op grew") {
		t.Errorf("unwatched benchmark warned:\n%s", s)
	}
	// Every common benchmark/metric pair gets a comparison row.
	for _, row := range []string{
		"BenchmarkTable3 ns/op", "BenchmarkTable3 B/op", "BenchmarkTable3 allocs/op",
		"BenchmarkUnrelated ns/op", "BenchmarkUnrelated B/op",
	} {
		if !strings.Contains(s, row) {
			t.Errorf("missing comparison row %q:\n%s", row, s)
		}
	}
	if !strings.Contains(s, "[REGRESSION]") || !strings.Contains(s, "1 watched metric(s) regressed") {
		t.Errorf("regression summary missing:\n%s", s)
	}
}

// TestRunNsOpRegressionThreshold checks the ns/op and alloc thresholds
// are independent knobs.
func TestRunNsOpRegressionThreshold(t *testing.T) {
	oldPath := writeBench(t, "old.json", map[string]map[string]float64{
		"BenchmarkFigure2": {"ns/op": 100, "B/op": 100},
	})
	newPath := writeBench(t, "new.json", map[string]map[string]float64{
		"BenchmarkFigure2": {"ns/op": 350, "B/op": 120},
	})
	var out bytes.Buffer
	regs, err := run(&out, oldPath, newPath, []string{"BenchmarkFigure2"}, defaults, 3.0, 1.1)
	if err != nil {
		t.Fatal(err)
	}
	if regs != 2 {
		t.Errorf("run returned %d regressions, want 2", regs)
	}
	s := out.String()
	if !strings.Contains(s, "BenchmarkFigure2 ns/op grew 3.50x") {
		t.Errorf("ns/op regression over its own threshold not flagged:\n%s", s)
	}
	if !strings.Contains(s, "BenchmarkFigure2 B/op grew 1.20x") {
		t.Errorf("B/op regression over the alloc threshold not flagged:\n%s", s)
	}
}

// TestRunNoAllocMetrics checks artifacts produced without -benchmem
// (no B/op or allocs/op) still compare cleanly on ns/op alone.
func TestRunNoAllocMetrics(t *testing.T) {
	oldPath := writeBench(t, "old.json", map[string]map[string]float64{
		"BenchmarkTable3": {"ns/op": 100},
	})
	newPath := writeBench(t, "new.json", map[string]map[string]float64{
		"BenchmarkTable3": {"ns/op": 110},
	})
	var out bytes.Buffer
	regs, err := run(&out, oldPath, newPath, []string{"BenchmarkTable3"}, defaults, 2.0, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	if regs != 0 {
		t.Errorf("run returned %d regressions, want 0", regs)
	}
	s := out.String()
	if strings.Contains(s, "BenchmarkTable3 B/op") || strings.Contains(s, "BenchmarkTable3 allocs/op") {
		t.Errorf("alloc rows fabricated without -benchmem data:\n%s", s)
	}
	if !strings.Contains(s, "no watched regressions") {
		t.Errorf("clean comparison not reported:\n%s", s)
	}
}

// TestRunMissingBaseline checks a fresh branch without an inherited
// artifact skips the comparison instead of failing.
func TestRunMissingBaseline(t *testing.T) {
	newPath := writeBench(t, "new.json", map[string]map[string]float64{
		"BenchmarkTable3": {"ns/op": 100},
	})
	var out bytes.Buffer
	regs, err := run(&out, filepath.Join(t.TempDir(), "absent.json"), newPath, nil, defaults, 2.0, 2.0)
	if err != nil {
		t.Fatalf("missing baseline must not fail: %v", err)
	}
	if regs != 0 {
		t.Errorf("run returned %d regressions on a skipped comparison, want 0", regs)
	}
	if !strings.Contains(out.String(), "skipping comparison") {
		t.Errorf("skip not reported: %s", out.String())
	}
}

// TestRunCustomMetrics pins the load-generator comparison path: latency
// quantiles tracked via -metrics diff like any other metric (gated by
// -threshold, not -alloc-threshold), benchmarks without any tracked
// metric are skipped, and an aborted candidate artifact is called out.
func TestRunCustomMetrics(t *testing.T) {
	oldPath := writeBench(t, "old.json", map[string]map[string]float64{
		"BenchmarkLoadGen/explore": {"p99-ns": 1e6, "err-rate": 0.01, "ns/op": 5e5},
		"BenchmarkTable3":          {"ns/op": 100}, // no p99-ns: skipped
	})
	newPath := writeBenchAborted(t, "new.json", map[string]map[string]float64{
		"BenchmarkLoadGen/explore": {"p99-ns": 2.5e6, "err-rate": 0.01, "ns/op": 5e5},
		"BenchmarkTable3":          {"ns/op": 400},
	}, true)
	var out bytes.Buffer
	regs, err := run(&out, oldPath, newPath, []string{"BenchmarkLoadGen"},
		[]string{"p99-ns", "err-rate"}, 2.0, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	if regs != 1 {
		t.Errorf("run returned %d regressions, want 1 (p99-ns 2.5x)", regs)
	}
	s := out.String()
	if !strings.Contains(s, "BenchmarkLoadGen/explore p99-ns grew 2.50x") {
		t.Errorf("p99 regression not flagged:\n%s", s)
	}
	if strings.Contains(s, "BenchmarkTable3") {
		t.Errorf("benchmark without tracked metrics compared anyway:\n%s", s)
	}
	if !strings.Contains(s, "marked aborted") {
		t.Errorf("aborted candidate not called out:\n%s", s)
	}
}

// TestRunMatchesGOMAXPROCSSuffix checks names carrying the "-N" suffix
// `go test -bench` appends on multi-core hosts compare against bare
// names, so a 10x B/op regression fails -strict instead of slipping
// through as "no common benchmarks".
func TestRunMatchesGOMAXPROCSSuffix(t *testing.T) {
	oldPath := writeBench(t, "old.json", map[string]map[string]float64{
		"BenchmarkTable3":                    {"ns/op": 100, "B/op": 1000, "allocs/op": 10},
		"BenchmarkAblationWorkers/workers=2": {"ns/op": 100, "B/op": 1000},
	})
	newPath := writeBench(t, "new.json", map[string]map[string]float64{
		"BenchmarkTable3-2":                    {"ns/op": 100, "B/op": 10000, "allocs/op": 10},
		"BenchmarkAblationWorkers/workers=2-2": {"ns/op": 100, "B/op": 1000},
	})
	gate := []string{"B/op", "allocs/op"}
	var out bytes.Buffer
	regs, err := run(&out, oldPath, newPath, []string{"BenchmarkTable3"}, gate, 2.0, 1.25)
	if err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if regs != 1 || !strings.Contains(s, "repro/BenchmarkTable3 B/op grew 10.00x") {
		t.Errorf("10x B/op regression on a suffixed name: %d regressions\n%s", regs, s)
	}
	if !strings.Contains(s, "repro/BenchmarkAblationWorkers/workers=2 B/op") {
		t.Errorf("suffixed sub-benchmark not compared:\n%s", s)
	}
	if got := status(regs, err, true); got != 1 {
		t.Errorf("-strict exit status = %d, want 1", got)
	}
	if got := status(regs, err, false); got != 0 {
		t.Errorf("advisory exit status = %d, want 0", got)
	}
}

// TestRunNoCommonWatchedFailsStrict checks a gate that compares no
// watched benchmark fails under -strict and stays advisory without it.
func TestRunNoCommonWatchedFailsStrict(t *testing.T) {
	oldPath := writeBench(t, "old.json", map[string]map[string]float64{
		"BenchmarkTable3":    {"B/op": 1000},
		"BenchmarkUnrelated": {"B/op": 1000},
	})
	newPath := writeBench(t, "new.json", map[string]map[string]float64{
		"BenchmarkFigure2":     {"B/op": 1000},
		"BenchmarkUnrelated-4": {"B/op": 1000},
	})
	var out bytes.Buffer
	regs, err := run(&out, oldPath, newPath, []string{"BenchmarkTable3", "BenchmarkFigure2"}, defaults, 2.0, 1.25)
	if !errors.Is(err, errNoWatched) {
		t.Fatalf("run error = %v, want errNoWatched", err)
	}
	if !strings.Contains(out.String(), "BenchmarkUnrelated B/op") {
		t.Errorf("common unwatched benchmark not compared:\n%s", out.String())
	}
	if got := status(regs, err, true); got != 1 {
		t.Errorf("-strict exit status = %d, want 1", got)
	}
	if got := status(regs, err, false); got != 0 {
		t.Errorf("advisory exit status = %d, want 0", got)
	}
}

// TestRunSuffixCollision checks two entries that differ only in their
// GOMAXPROCS suffix (a -cpu 1,2 run) are rejected rather than one
// silently shadowing the other.
func TestRunSuffixCollision(t *testing.T) {
	oldPath := writeBench(t, "old.json", map[string]map[string]float64{
		"BenchmarkTable3": {"B/op": 1000},
	})
	newPath := writeBench(t, "new.json", map[string]map[string]float64{
		"BenchmarkTable3":   {"B/op": 1000},
		"BenchmarkTable3-2": {"B/op": 1000},
	})
	var out bytes.Buffer
	_, err := run(&out, oldPath, newPath, []string{"BenchmarkTable3"}, defaults, 2.0, 1.25)
	if err == nil || errors.Is(err, errNoWatched) || !strings.Contains(err.Error(), "appears twice") {
		t.Fatalf("colliding names: err = %v, want a duplicate-name error", err)
	}
	if got := status(0, err, false); got != 1 {
		t.Errorf("exit status = %d, want 1 even without -strict", got)
	}
}
