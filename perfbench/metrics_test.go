package main

import (
	"bytes"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
)

// benchmarkFile mirrors BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var b benchmarkFile
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

func TestMetricNameGrammar(t *testing.T) {
	good := []string{"setup_s", "fpm.mine.scan_ms", "engine.pool_hit_ratio", "p99-ms", "0abc"}
	bad := []string{"", ".leading", "-x", "has space", "slash/ed", "ünicode", strings.Repeat("a", 65)}
	for _, n := range good {
		if !nameRE.MatchString(n) {
			t.Errorf("%q should be a valid metric name", n)
		}
	}
	for _, n := range bad {
		if nameRE.MatchString(n) {
			t.Errorf("%q should not be a valid metric name", n)
		}
	}
	seen := map[string]bool{}
	for _, m := range append(append([]metricSpec(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(m.Name) {
			t.Errorf("declared metric %q breaks the name grammar", m.Name)
		}
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("metric %s has invalid unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %s: better is %q", m.Name, m.Better)
		}
		if seen[m.Name] {
			t.Errorf("metric %s declared twice", m.Name)
		}
		seen[m.Name] = true
	}
}

// TestBenchmarkFileAgrees pins BENCHMARK.json to the names, units and
// bounds the command declares, and so prints.
func TestBenchmarkFileAgrees(t *testing.T) {
	b := loadBenchmarkFile(t)
	var names []string
	for _, w := range b.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not one the command runs", w.Name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of 1 to 200 characters (has %d)", w.Name, len(w.Why))
		}
		names = append(names, w.Name)
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists workloads %v; the command runs %d", names, len(workloads))
	}
	if !equalSpecs(b.EndToEnd, endToEnd) {
		t.Errorf("end_to_end in BENCHMARK.json:\n%+v\ndeclared in the command:\n%+v", b.EndToEnd, endToEnd)
	}
	if !equalSpecs(b.PerLayer, perLayer) {
		t.Errorf("per_layer in BENCHMARK.json:\n%+v\ndeclared in the command:\n%+v", b.PerLayer, perLayer)
	}
	var setup *metricSpec
	for i, m := range b.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("metric %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setup = &b.EndToEnd[i]
		}
	}
	if setup == nil || setup.Unit != "s" || setup.Better != "lower" {
		t.Fatalf("setup_s must be declared with unit s, lower is better")
	}
	for _, m := range b.EndToEnd {
		if m.Bound > setup.Bound {
			t.Errorf("setup_s must have the largest bound; %s has %v > %v", m.Name, m.Bound, setup.Bound)
		}
	}
	if len(b.Paths) != 1 || b.Paths[0] != "perfbench" {
		t.Errorf("paths = %v, want [perfbench]", b.Paths)
	}
	if strings.Join(b.Command, " ") != "bash perfbench/run.sh" {
		t.Errorf("command = %v", b.Command)
	}
}

func equalSpecs(a, b []metricSpec) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestResultLinePrintsDeclaredNames checks that the result line carries
// exactly the declared metrics with their units, and refuses a run that
// missed one or measured an undeclared one.
func TestResultLinePrintsDeclaredNames(t *testing.T) {
	for _, trace := range []bool{false, true} {
		specs := specsFor(trace)
		values := map[string]float64{}
		for i, s := range specs {
			values[s.Name] = float64(i + 1)
		}
		line, err := buildResultLine(specs, values, 10, 0, true)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := json.Marshal(line)
		if err != nil {
			t.Fatal(err)
		}
		var printed struct {
			Correct   bool `json:"correct"`
			Attempted int  `json:"attempted"`
			Failed    int  `json:"failed"`
			Metrics   map[string]struct {
				Value float64 `json:"value"`
				Unit  string  `json:"unit"`
			} `json:"metrics"`
		}
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&printed); err != nil {
			t.Fatal(err)
		}
		var got, want []string
		for name, m := range printed.Metrics {
			got = append(got, name+" "+m.Unit)
		}
		for _, s := range specs {
			want = append(want, s.Name+" "+s.Unit)
		}
		sort.Strings(got)
		sort.Strings(want)
		if strings.Join(got, ",") != strings.Join(want, ",") {
			t.Errorf("trace=%v printed %v, want %v", trace, got, want)
		}

		missing := map[string]float64{}
		for k, v := range values {
			missing[k] = v
		}
		delete(missing, specs[0].Name)
		if _, err := buildResultLine(specs, missing, 1, 0, true); err == nil {
			t.Errorf("trace=%v: a run missing %s must not print a result", trace, specs[0].Name)
		}
		values["undeclared.metric"] = 1
		if _, err := buildResultLine(specs, values, 1, 0, true); err == nil {
			t.Errorf("trace=%v: an undeclared metric must not print", trace)
		}
	}
}
