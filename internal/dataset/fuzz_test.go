package dataset

import (
	"encoding/csv"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
)

// FuzzReadCSV asserts the CSV loader never panics on arbitrary input and
// that whatever it accepts can be written back out and re-read to a table
// of identical shape.
func FuzzReadCSV(f *testing.F) {
	f.Add("a,b\n1,x\n2,y\n")
	f.Add("a\n\n")
	f.Add("x,y,z\n1,2,3\n4,5,6\n")
	f.Add("h\n?\nNA\n")
	f.Add("a,a\n1,2\n")         // duplicate header
	f.Add("a,b\n\"q\"\"\",2\n") // quoting
	f.Add(",\n,\n")
	f.Fuzz(func(t *testing.T, input string) {
		tab, err := ReadCSV(strings.NewReader(input), CSVOptions{})
		if err != nil {
			return // rejection is fine; panics are not
		}
		var sb strings.Builder
		if err := tab.WriteCSV(&sb); err != nil {
			t.Fatalf("accepted table failed to serialize: %v", err)
		}
		back, err := ReadCSV(strings.NewReader(sb.String()), CSVOptions{})
		if err != nil {
			t.Fatalf("round-trip rejected: %v\noriginal: %q\nwritten: %q", err, input, sb.String())
		}
		if back.NumRows() != tab.NumRows() || back.NumCols() != tab.NumCols() {
			t.Fatalf("round-trip changed shape: (%d,%d) -> (%d,%d)",
				tab.NumRows(), tab.NumCols(), back.NumRows(), back.NumCols())
		}
	})
}

// fuzzCommas are the delimiters FuzzReadCSVMatchesEncodingCSV draws from:
// the default, two common alternatives, a multi-byte rune and a quote,
// which encoding/csv rejects as a delimiter.
var fuzzCommas = []rune{',', ';', '\t', '§', '"'}

// fuzzOptions are the option variants FuzzReadCSVMatchesEncodingCSV draws
// from: defaults, forced categorical columns, no missing tokens, and
// missing tokens that parse as numbers.
var fuzzOptions = []CSVOptions{
	{},
	{ForceCategorical: []string{"a", "b", "x"}},
	{MissingTokens: []string{}},
	{MissingTokens: []string{"1", "x", "NaN"}},
	{MissingTokens: []string{"-0", "inf", "?"}},
}

// FuzzReadCSVMatchesEncodingCSV asserts the loader is indistinguishable
// from readCSVReference, the historical encoding/csv-based loader: both
// accept and reject the same inputs with the same error, and accepted
// inputs give equal tables (names, kinds, float bits with NaN matching
// NaN, codes and levels).
func FuzzReadCSVMatchesEncodingCSV(f *testing.F) {
	for _, s := range []string{
		"a,b\n1,x\n2,y\n",
		"a,b\n\"1\",\"x y\"\n\"2\",z\n",           // quoted fields
		"a,b\n\"q\"\"\",2\n\"\"\"\",3\n",          // "" escapes
		"a,b\n\"multi\nline\",1\n\"x\r\ny\",2\n",  // multi-line quoted fields
		"a,b\r\n1,x\r\n2,y\r\n",                   // CRLF
		"a,b\n1,x\n2,y\r",                         // trailing \r at EOF
		"a,b\n\n1,x\n\r\n\n2,y\n\n",               // blank lines
		"a\n \n\t\n1\n",                           // whitespace-only lines
		"a,b\n1, \"x\"\n 2 ,y \n",                 // leading and trailing spaces
		"a,b\n1,x\"y\n",                           // bare quote
		"a,b\n\"abc\"x,1\n",                       // text after a closing quote
		"a,b\n\"open,1\n",                         // unterminated quote
		"a,b\n\"open\n",                           // unterminated multi-line quote
		"a,b\n1\n",                                // too few fields
		"a,b\n1,2,3\n",                            // too many fields
		"a;b\n1;x\n",                              // other delimiters
		"a\tb\n1\t\tx\n",                          // tab delimiter and TrimLeadingSpace
		"a§b\n1§\"x§y\"\n",                        // multi-byte delimiter
		"a,b\n?,NA\n1e400,nan\n0x1p-2,-0\n,inf\n", // missing tokens and float syntax
		"a,,c\n1,2,3\n",                           // empty column name
		"a,a\n1,2\n",                              // duplicate column name
	} {
		for c := range fuzzCommas {
			f.Add(s, uint8(c), uint8(c))
		}
	}
	f.Fuzz(func(t *testing.T, input string, comma, mode uint8) {
		// Every rule of the grammar shows in a few lines. Bounding the
		// input keeps the fuzzer mutating instead of spending its time
		// minimizing long inputs.
		if len(input) > 1<<10 {
			return
		}
		opts := fuzzOptions[int(mode)%len(fuzzOptions)]
		opts.Comma = fuzzCommas[int(comma)%len(fuzzCommas)]
		got, gotErr := ReadCSV(strings.NewReader(input), opts)
		want, wantErr := readCSVReference(strings.NewReader(input), opts)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("input %q: err = %v, reference err = %v", input, gotErr, wantErr)
		}
		if gotErr != nil {
			for _, sentinel := range []error{csv.ErrFieldCount, csv.ErrBareQuote, csv.ErrQuote} {
				if errors.Is(gotErr, sentinel) != errors.Is(wantErr, sentinel) {
					t.Fatalf("input %q: err = %v, reference err = %v", input, gotErr, wantErr)
				}
			}
			if gotErr.Error() != wantErr.Error() {
				t.Fatalf("input %q: err = %q, reference err = %q", input, gotErr, wantErr)
			}
			return
		}
		if diff := tableDiff(got, want); diff != "" {
			t.Fatalf("input %q: %s", input, diff)
		}
	})
}

// tableDiff describes the first difference between two tables, or
// returns "" when they are equal: same row count, names, kinds, float
// bits (any NaN matches any NaN), codes and levels.
func tableDiff(got, want *Table) string {
	if got.nrows != want.nrows || len(got.cols) != len(want.cols) {
		return fmt.Sprintf("shape (%d,%d), want (%d,%d)", got.nrows, len(got.cols), want.nrows, len(want.cols))
	}
	for j := range want.cols {
		g, w := &got.cols[j], &want.cols[j]
		if g.field != w.field {
			return fmt.Sprintf("column %d is %v, want %v", j, g.field, w.field)
		}
		if len(g.floats) != len(w.floats) || len(g.codes) != len(w.codes) || !slices.Equal(g.levels, w.levels) {
			return fmt.Sprintf("column %q: %d floats, %d codes, levels %q; want %d, %d, %q",
				w.field.Name, len(g.floats), len(g.codes), g.levels, len(w.floats), len(w.codes), w.levels)
		}
		for i, v := range w.floats {
			if u := g.floats[i]; math.Float64bits(u) != math.Float64bits(v) && !(math.IsNaN(u) && math.IsNaN(v)) {
				return fmt.Sprintf("column %q row %d = %v, want %v", w.field.Name, i, u, v)
			}
		}
		if !slices.Equal(g.codes, w.codes) {
			return fmt.Sprintf("column %q codes %v, want %v", w.field.Name, g.codes, w.codes)
		}
	}
	return ""
}
