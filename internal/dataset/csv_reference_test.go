package dataset

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"repro/internal/faultinject"
	"repro/internal/obs"
)

// readCSVReference is the historical CSV loader, kept as the oracle the
// production tokenizer is fuzzed against: encoding/csv materializes every
// record, then each column is trimmed, checked with
// referenceAllNumeric and parsed or interned.
func readCSVReference(r io.Reader, opts CSVOptions) (*Table, error) {
	span := opts.Tracer.Start(obs.SpanReadCSV)
	defer span.End()

	if err := faultinject.Hit(faultinject.SiteCSVLoad); err != nil {
		return nil, err
	}
	cr := csv.NewReader(r)
	if opts.Comma != 0 {
		cr.Comma = opts.Comma
	}
	cr.TrimLeadingSpace = true
	parseSpan := span.Start(obs.SpanCSVParse)
	records, err := cr.ReadAll()
	parseSpan.End()
	if err != nil {
		return nil, fmt.Errorf("dataset: reading CSV: %w", err)
	}
	if len(records) == 0 {
		return nil, fmt.Errorf("dataset: empty CSV (no header)")
	}
	header := records[0]
	rows := records[1:]
	missing := opts.missing()
	force := map[string]bool{}
	for _, n := range opts.ForceCategorical {
		force[n] = true
	}

	colSpan := span.Start(obs.SpanCSVColumns)
	defer colSpan.End()
	continuous, categorical := 0, 0
	b := NewBuilder()
	for j, name := range header {
		name = strings.TrimSpace(name)
		if name == "" {
			return nil, fmt.Errorf("dataset: empty column name at position %d", j+1)
		}
		raw := make([]string, len(rows))
		for i, rec := range rows {
			if j >= len(rec) {
				return nil, fmt.Errorf("dataset: row %d has %d fields, want %d", i+1, len(rec), len(header))
			}
			raw[i] = strings.TrimSpace(rec[j])
		}
		if !force[name] && referenceAllNumeric(raw, missing) {
			vals := make([]float64, len(raw))
			for i, s := range raw {
				if missing[s] {
					vals[i] = math.NaN()
					continue
				}
				v, err := strconv.ParseFloat(s, 64)
				if err != nil {
					return nil, fmt.Errorf("dataset: column %q row %d: %w", name, i+1, err)
				}
				vals[i] = v
			}
			b.AddFloat(name, vals)
			continuous++
		} else {
			for i, s := range raw {
				if missing[s] {
					raw[i] = "?"
				}
			}
			b.AddCategorical(name, raw)
			categorical++
		}
	}
	if tr := opts.Tracer; tr != nil {
		tr.Counter(obs.CtrRows).Add(int64(len(rows)))
		tr.Counter(obs.CtrCols).Add(int64(len(header)))
		tr.Counter(obs.CtrColsContinuous).Add(int64(continuous))
		tr.Counter(obs.CtrColsCategorical).Add(int64(categorical))
	}
	return b.Build()
}

func referenceAllNumeric(vals []string, missing map[string]bool) bool {
	seen := false
	for _, s := range vals {
		if missing[s] {
			continue
		}
		if _, err := strconv.ParseFloat(s, 64); err != nil {
			return false
		}
		seen = true
	}
	return seen // an all-missing column is categorical
}
