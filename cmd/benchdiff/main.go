// Command benchdiff compares two benchfmt artifacts and flags metric
// regressions on the watched benchmarks:
//
//	benchdiff -old BENCH_PR2.json -new BENCH_PR4.json
//	benchdiff -old BENCH_PR8_SLO.json -new fresh.json \
//	    -watch BenchmarkLoadGen -metrics p99-ns,err-rate
//
// Benchmarks are matched by package and name with the trailing
// GOMAXPROCS suffix that `go test -bench` appends on multi-core hosts
// ("BenchmarkTable3-2") stripped, so artifacts from hosts with different
// core counts compare; two entries of one file that collide after
// stripping are an error. For every benchmark present in both files it
// prints the new/old ratio
// of each tracked metric (-metrics, defaulting to ns/op, B/op and
// allocs/op; latency quantiles such as p99-ns from cmd/hdivloadgen
// artifacts diff the same way). Watched benchmarks (-watch, a substring
// list defaulting to the paper's tracked runtime artifacts
// BenchmarkTable3 and BenchmarkFigure2) whose B/op or allocs/op ratio
// exceeds -alloc-threshold (default 2.0), or whose ratio on any other
// tracked metric exceeds -threshold (default 2.0), emit a GitHub Actions
// `::warning::` annotation. By default the comparison is advisory: the
// exit status is 0 whether or not regressions are found, so CI surfaces
// the warning without failing the build. With -strict, watched
// regressions exit nonzero and fail the build, and so does a comparison
// in which no watched benchmark is common to both files (a gate that
// compares nothing passes nothing) — CI runs the allocation gate this way
// so B/op regressions on the tracked artifacts cannot land silently. An
// artifact marked aborted (a load-generator run that was
// interrupted) is compared but called out, since its numbers cover less
// traffic than configured. Unreadable or unparseable inputs always exit
// nonzero; a missing -old baseline is reported and skipped (exit 0) so
// fresh branches without an inherited artifact still pass.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strings"

	"repro/internal/benchfmt"
)

// defaultMetrics are the metrics compared when -metrics is not given.
const defaultMetrics = "ns/op,B/op,allocs/op"

// allocMetric reports whether a metric is gated by -alloc-threshold
// rather than -threshold.
func allocMetric(m string) bool { return m == "B/op" || m == "allocs/op" }

// errNoWatched reports a comparison in which no watched benchmark is
// common to both files; -strict turns it into a failure.
var errNoWatched = errors.New("no watched benchmark is common to both files")

// procSuffix matches the "-<GOMAXPROCS>" suffix of a benchmark name.
var procSuffix = regexp.MustCompile(`-[0-9]+$`)

func main() {
	oldPath := flag.String("old", "", "baseline benchjson file (required)")
	newPath := flag.String("new", "", "candidate benchjson file (required)")
	watch := flag.String("watch", "BenchmarkTable3,BenchmarkFigure2", "comma-separated benchmark name substrings that warn on regression")
	metrics := flag.String("metrics", defaultMetrics, "comma-separated metrics to compare, in display order")
	threshold := flag.Float64("threshold", 2.0, "ratio (new/old) above which a watched non-allocation metric warns")
	allocThreshold := flag.Float64("alloc-threshold", 2.0, "B/op and allocs/op ratio (new/old) above which a watched benchmark warns")
	strict := flag.Bool("strict", false, "exit nonzero when a watched benchmark regresses beyond its threshold")
	flag.Parse()
	if *oldPath == "" || *newPath == "" {
		fmt.Fprintln(os.Stderr, "benchdiff: -old and -new are required")
		os.Exit(2)
	}
	regressions, err := run(os.Stdout, *oldPath, *newPath,
		splitList(*watch), splitList(*metrics), *threshold, *allocThreshold)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
	}
	os.Exit(status(regressions, err, *strict))
}

// status maps a comparison's outcome to the exit status: 1 for an
// unusable input, and under -strict also for a watched regression or a
// comparison with no watched benchmark in common; 0 otherwise.
func status(regressions int, err error, strict bool) int {
	if err != nil && !errors.Is(err, errNoWatched) {
		return 1
	}
	if strict && (regressions > 0 || err != nil) {
		return 1
	}
	return 0
}

// splitList splits a comma-separated flag value, trimming blanks.
func splitList(s string) []string {
	var out []string
	for _, v := range strings.Split(s, ",") {
		if v = strings.TrimSpace(v); v != "" {
			out = append(out, v)
		}
	}
	return out
}

// load parses one benchfmt artifact into a (package/name → metrics) map,
// keeping only the tracked metrics and skipping benchmarks that carry
// none of them. Sub-benchmarks keep their full slash-separated names;
// the GOMAXPROCS suffix is stripped, and two entries that then collide
// are an error. The second return is the artifact's aborted marker.
func load(path string, metrics []string) (map[string]map[string]float64, bool, error) {
	f, err := benchfmt.ReadFile(path)
	if err != nil {
		return nil, false, err
	}
	m := map[string]map[string]float64{}
	for _, b := range f.Benchmarks {
		kept := map[string]float64{}
		for _, metric := range metrics {
			if v, ok := b.Metrics[metric]; ok {
				kept[metric] = v
			}
		}
		if len(kept) == 0 {
			continue
		}
		name := b.Package + "/" + procSuffix.ReplaceAllString(b.Name, "")
		if _, dup := m[name]; dup {
			return nil, false, fmt.Errorf("%s: benchmark %s appears twice once the GOMAXPROCS suffix is stripped", path, name)
		}
		m[name] = kept
	}
	return m, f.Aborted, nil
}

// run prints the comparison and returns the number of watched metrics
// that regressed beyond their threshold. It returns errNoWatched when no
// watched benchmark is common to both files.
func run(w io.Writer, oldPath, newPath string, watch, metrics []string, threshold, allocThreshold float64) (int, error) {
	oldM, oldAborted, err := load(oldPath, metrics)
	if os.IsNotExist(err) {
		// No inherited baseline (fresh branch): nothing to compare against.
		fmt.Fprintf(w, "benchdiff: baseline %s not found, skipping comparison\n", oldPath)
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	newM, newAborted, err := load(newPath, metrics)
	if err != nil {
		return 0, err
	}
	if oldAborted {
		fmt.Fprintf(w, "benchdiff: baseline %s is marked aborted (partial run); ratios are advisory\n", oldPath)
	}
	if newAborted {
		fmt.Fprintf(w, "benchdiff: candidate %s is marked aborted (partial run); ratios are advisory\n", newPath)
	}

	watched := func(name string) bool {
		for _, sub := range watch {
			if strings.Contains(name, sub) {
				return true
			}
		}
		return false
	}

	names := make([]string, 0, len(newM))
	nWatched := 0
	for name := range newM {
		if _, ok := oldM[name]; ok {
			names = append(names, name)
			if watched(name) {
				nWatched++
			}
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		fmt.Fprintln(w, "benchdiff: no common benchmarks between the two files")
		return 0, errNoWatched
	}

	regressions := 0
	fmt.Fprintf(w, "%-72s %14s %14s %8s\n", "benchmark", "old", "new", "ratio")
	for _, name := range names {
		for _, metric := range metrics {
			o, okOld := oldM[name][metric]
			n, okNew := newM[name][metric]
			if !okOld || !okNew {
				continue
			}
			ratio := n / o
			bar := threshold
			if allocMetric(metric) {
				bar = allocThreshold
			}
			mark := ""
			if watched(name) {
				mark = " [watched]"
				if o > 0 && ratio > bar {
					mark = " [REGRESSION]"
					regressions++
					fmt.Fprintf(w, "::warning title=benchmark regression::%s %s grew %.2fx (%.0f -> %.0f), over the %.1fx threshold\n",
						name, metric, ratio, o, n, bar)
				}
			}
			fmt.Fprintf(w, "%-72s %14.0f %14.0f %7.2fx%s\n", name+" "+metric, o, n, ratio, mark)
		}
	}
	if regressions > 0 {
		fmt.Fprintf(w, "benchdiff: %d watched metric(s) regressed beyond their threshold\n", regressions)
	} else {
		fmt.Fprintf(w, "benchdiff: no watched regressions beyond %gx (%gx for B/op and allocs/op)\n", threshold, allocThreshold)
	}
	if nWatched == 0 {
		return regressions, errNoWatched
	}
	return regressions, nil
}
