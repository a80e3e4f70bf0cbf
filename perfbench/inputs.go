package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"

	"repro/internal/datagen"
	"repro/internal/dataset"
)

// Input sizes. The program under test sees only the files these produce.
const (
	compasRows     = 20000  // serve-warm tables and the ingest-live base table
	folktablesRows = 100000 // pipeline-full, above the 65,536-row multi-shard threshold
	batchRows      = 32     // rows per ingest-live append
	primeBatches   = 256    // appends written before the priming crash
)

// tables is how many independently generated tables serve-warm serves
// and pipeline-full rotates through. The lattice a table yields varies
// from seed to seed by several percent; spreading each run over several
// tables keeps that variation from dominating the run-to-run spread.
const tables = 4

// tableSeed is the generator seed of table k of a run with the given seed.
func tableSeed(seed int64, k int) int64 { return seed*1000 + int64(k) }

// streamBatches is how many held-out batches an ingest-live run of the
// given length may send, with headroom.
func streamBatches(seconds float64) int {
	return int(math.Ceil(seconds*appendRate)) + 64
}

// writeInputs writes the workload's seeded inputs into dir: the CSV the
// daemon or pipeline reads, and for ingest-live the held-out row batches
// as one JSON append body per line. It runs in a child process, so the
// generator's memory never counts toward the benchmark's own peak RSS.
func writeInputs(workload string, seed int64, seconds float64, dir string) error {
	switch workload {
	case "serve-warm":
		for k := 0; k < tables; k++ {
			tab, err := compasTable(compasRows, tableSeed(seed, k))
			if err != nil {
				return err
			}
			if err := tab.WriteCSVFile(filepath.Join(dir, fmt.Sprintf("compas%d.csv", k))); err != nil {
				return err
			}
		}
		return nil
	case "ingest-live":
		batches := primeBatches + streamBatches(seconds)
		tab, err := compasTable(compasRows+batches*batchRows, seed)
		if err != nil {
			return err
		}
		base := tab.FilterRows(seq(0, compasRows))
		if err := base.WriteCSVFile(filepath.Join(dir, "compas.csv")); err != nil {
			return err
		}
		return writeBatches(tab, compasRows, batches, filepath.Join(dir, "batches.jsonl"))
	case "pipeline-full":
		for k := 0; k < tables; k++ {
			d := datagen.Folktables(datagen.Config{N: folktablesRows, Seed: tableSeed(seed, k)})
			b := builderFrom(d.Table)
			b.AddFloat("income", d.Target)
			tab, err := b.Build()
			if err != nil {
				return err
			}
			if err := tab.WriteCSVFile(filepath.Join(dir, fmt.Sprintf("folktables%d.csv", k))); err != nil {
				return err
			}
		}
		return nil
	}
	return fmt.Errorf("unknown workload %q", workload)
}

// compasTable generates the compas analog with its boolean label and
// prediction columns, the same columns cmd/mkdata writes.
func compasTable(n int, seed int64) (*dataset.Table, error) {
	d := datagen.Compas(datagen.Config{N: n, Seed: seed})
	b := builderFrom(d.Table)
	b.AddCategorical("label", boolStrings(d.Actual))
	b.AddCategorical("prediction", boolStrings(d.Predicted))
	return b.Build()
}

func boolStrings(vals []bool) []string {
	s := make([]string, len(vals))
	for i, v := range vals {
		s[i] = strconv.FormatBool(v)
	}
	return s
}

// builderFrom starts a builder holding every column of t.
func builderFrom(t *dataset.Table) *dataset.Builder {
	b := dataset.NewBuilder()
	for _, f := range t.Fields() {
		if f.Kind == dataset.Continuous {
			b.AddFloat(f.Name, t.Floats(f.Name))
		} else {
			b.AddCategoricalCodes(f.Name, t.Codes(f.Name), t.Levels(f.Name))
		}
	}
	return b
}

func seq(from, to int) []int {
	s := make([]int, 0, to-from)
	for i := from; i < to; i++ {
		s = append(s, i)
	}
	return s
}

// writeBatches renders rows [from, from+n*batchRows) of t as n append
// bodies in the daemon's wire format, one per line.
func writeBatches(t *dataset.Table, from, n int, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fields := t.Fields()
	cols := make([]string, len(fields))
	for i, fd := range fields {
		cols[i] = fd.Name
	}
	colsJSON, _ := json.Marshal(cols) // []string always marshals
	for b := 0; b < n; b++ {
		var buf bytes.Buffer
		buf.WriteString(`{"columns":`)
		buf.Write(colsJSON)
		buf.WriteString(`,"rows":[`)
		for r := 0; r < batchRows; r++ {
			row := from + b*batchRows + r
			if r > 0 {
				buf.WriteByte(',')
			}
			buf.WriteByte('[')
			for c, fd := range fields {
				if c > 0 {
					buf.WriteByte(',')
				}
				if fd.Kind == dataset.Continuous {
					v := t.Floats(fd.Name)[row]
					if math.IsNaN(v) {
						buf.WriteString("null")
					} else {
						buf.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
					}
				} else {
					lv, _ := json.Marshal(t.ValueString(row, fd.Name)) // a string always marshals
					buf.Write(lv)
				}
			}
			buf.WriteByte(']')
		}
		buf.WriteString("]}\n")
		if _, err := w.Write(buf.Bytes()); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// readBatches loads the append bodies writeInputs wrote.
func readBatches(path string) ([][]byte, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var out [][]byte
	for _, line := range bytes.Split(raw, []byte("\n")) {
		if len(line) > 0 {
			out = append(out, line)
		}
	}
	return out, nil
}
