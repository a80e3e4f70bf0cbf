package core

import (
	"fmt"
	"strings"

	"repro/internal/dataset"
	"repro/internal/discretize"
	"repro/internal/hierarchy"
	"repro/internal/outcome"
)

// BuildStatistic assembles the outcome function named by stat from a
// table's label columns, returning the outcome plus the label columns to
// exclude from the exploration itself. Recognized statistics are "fpr",
// "fnr", "error", "accuracy" (requiring actual and predicted boolean
// columns) and "numeric" (requiring a numeric target column). It is the
// single statistic-resolution path shared by the CLI and the HTTP
// server, so both front ends produce identical explorations for the same
// parameters.
func BuildStatistic(tab *dataset.Table, stat, actualCol, predCol, targetCol string) (*outcome.Outcome, []string, error) {
	switch strings.ToLower(stat) {
	case "numeric":
		if targetCol == "" {
			return nil, nil, fmt.Errorf("statistic numeric requires a target column")
		}
		if !tab.HasColumn(targetCol) {
			return nil, nil, fmt.Errorf("no column %q", targetCol)
		}
		return outcome.Numeric(targetCol, tab.Floats(targetCol)), []string{targetCol}, nil
	case "fpr", "fnr", "error", "accuracy":
		if actualCol == "" || predCol == "" {
			return nil, nil, fmt.Errorf("statistic %s requires actual and predicted columns", stat)
		}
		actual, err := BoolColumn(tab, actualCol)
		if err != nil {
			return nil, nil, err
		}
		pred, err := BoolColumn(tab, predCol)
		if err != nil {
			return nil, nil, err
		}
		exclude := []string{actualCol, predCol}
		switch strings.ToLower(stat) {
		case "fpr":
			return outcome.FalsePositiveRate(actual, pred), exclude, nil
		case "fnr":
			return outcome.FalseNegativeRate(actual, pred), exclude, nil
		case "error":
			return outcome.ErrorRate(actual, pred), exclude, nil
		default:
			return outcome.Accuracy(actual, pred), exclude, nil
		}
	default:
		return nil, nil, fmt.Errorf("unknown statistic %q", stat)
	}
}

// BuildHierarchies assembles the hierarchy set explored over a table: a
// divergence-aware tree hierarchy driven by o for every continuous
// attribute, the given taxonomies for their categorical attributes, and
// a flat hierarchy for every other categorical attribute. Attributes in
// exclude (which must exist in the table) are left out entirely. It is
// the single hierarchy-assembly path shared by the pipeline (and through
// it the CLI) and the HTTP server, so both build identical universes.
func BuildHierarchies(tab *dataset.Table, o *outcome.Outcome, tree discretize.TreeOptions, taxonomies []*hierarchy.Hierarchy, exclude []string) (*hierarchy.Set, error) {
	if o == nil {
		return nil, fmt.Errorf("core: nil outcome")
	}
	skip := map[string]bool{}
	for _, e := range exclude {
		if !tab.HasColumn(e) {
			return nil, fmt.Errorf("core: excluded attribute %q not in table", e)
		}
		skip[e] = true
	}
	hs, err := discretize.TreeSet(tab, o, tree, exclude...)
	if err != nil {
		return nil, err
	}
	taxed := map[string]bool{}
	for _, h := range taxonomies {
		if !skip[h.Attr] {
			hs.Add(h)
			taxed[h.Attr] = true
		}
	}
	for _, f := range tab.Fields() {
		if f.Kind == dataset.Categorical && !skip[f.Name] && !taxed[f.Name] {
			hs.Add(hierarchy.FlatCategorical(tab, f.Name))
		}
	}
	return hs, nil
}

// BoolColumn reads a column as booleans: numeric columns treat nonzero as
// true; categorical columns accept true/false, yes/no, 1/0, t/f, y/n
// (case-insensitive).
func BoolColumn(tab *dataset.Table, name string) ([]bool, error) {
	if !tab.HasColumn(name) {
		return nil, fmt.Errorf("no column %q", name)
	}
	n := tab.NumRows()
	out := make([]bool, n)
	if tab.KindOf(name) == dataset.Continuous {
		for i, v := range tab.Floats(name) {
			out[i] = v != 0
		}
		return out, nil
	}
	codes := tab.Codes(name)
	levels := tab.Levels(name)
	truth := make([]bool, len(levels))
	for c, l := range levels {
		switch strings.ToLower(strings.TrimSpace(l)) {
		case "true", "yes", "1", "t", "y":
			truth[c] = true
		case "false", "no", "0", "f", "n":
			truth[c] = false
		default:
			return nil, fmt.Errorf("column %q: level %q is not boolean", name, l)
		}
	}
	for i, c := range codes {
		out[i] = truth[c]
	}
	return out, nil
}
