package dataset

import (
	"bytes"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"slices"
	"strconv"
	"unicode"
	"unicode/utf8"

	"repro/internal/engine"
	"repro/internal/faultinject"
	"repro/internal/obs"
)

// CSVOptions controls CSV parsing.
type CSVOptions struct {
	// Comma is the field delimiter; 0 means ','.
	Comma rune
	// ForceCategorical lists columns to load as categorical even when every
	// value parses as a number (e.g. zip codes).
	ForceCategorical []string
	// MissingTokens are treated as missing values. Missing continuous values
	// become NaN; missing categorical values become the level "?".
	// Defaults to {"", "?", "NA"} when nil.
	MissingTokens []string
	// Tracer, when non-nil, receives parse/inference spans and row/column
	// counters for the read.
	Tracer *obs.Tracer
}

func (o CSVOptions) missing() map[string]bool {
	toks := o.MissingTokens
	if toks == nil {
		toks = []string{"", "?", "NA"}
	}
	m := map[string]bool{}
	for _, t := range toks {
		m[t] = true
	}
	return m
}

// ReadCSV parses a headed CSV stream into a Table, inferring each column's
// kind: a column where every non-missing value parses as a float becomes
// continuous, otherwise categorical. The stream is read whole, then
// tokenized in memory (see tokenizeCSV) and decoded column by column in
// parallel.
func ReadCSV(r io.Reader, opts CSVOptions) (*Table, error) {
	return readCSV(opts, func() ([]byte, error) {
		buf, err := io.ReadAll(r)
		if err != nil {
			return nil, fmt.Errorf("dataset: reading CSV: %w", err)
		}
		return buf, nil
	})
}

// ReadCSVFile reads a CSV file in one read and parses it as ReadCSV does.
func ReadCSVFile(path string, opts CSVOptions) (*Table, error) {
	return readCSV(opts, func() ([]byte, error) { return os.ReadFile(path) })
}

// readCSV is ReadCSV over a read function that returns the whole input.
// The input buffer is owned by the loader: quoted fields are unescaped in
// place, and the table copies every string it keeps, so it never pins the
// buffer.
func readCSV(opts CSVOptions, read func() ([]byte, error)) (*Table, error) {
	span := opts.Tracer.Start(obs.SpanReadCSV)
	defer span.End()

	if err := faultinject.Hit(faultinject.SiteCSVLoad); err != nil {
		return nil, err
	}
	comma := opts.Comma
	if comma == 0 {
		comma = ','
	}
	if !validDelim(comma) {
		return nil, fmt.Errorf("dataset: reading CSV: %w", errInvalidDelim)
	}
	parseSpan := span.Start(obs.SpanCSVParse)
	buf, err := read()
	if err != nil {
		parseSpan.End()
		return nil, err
	}
	recs, err := tokenizeCSV(buf, comma)
	parseSpan.End()
	if err != nil {
		return nil, fmt.Errorf("dataset: reading CSV: %w", err)
	}
	width := len(recs.header) / 2
	if width == 0 {
		return nil, fmt.Errorf("dataset: empty CSV (no header)")
	}

	colSpan := span.Start(obs.SpanCSVColumns)
	defer colSpan.End()
	names := make([]string, width)
	for j := range names {
		names[j] = string(buf[recs.header[2*j]:recs.header[2*j+1]])
		if names[j] == "" {
			return nil, fmt.Errorf("dataset: empty column name at position %d", j+1)
		}
	}
	force := map[string]bool{}
	for _, n := range opts.ForceCategorical {
		force[n] = true
	}
	missing := opts.missing()
	cols := make([]column, width)
	err = engine.ParallelFor(width, runtime.GOMAXPROCS(0), nil, func(j int) {
		cols[j] = recs.decodeColumn(j, force[names[j]], missing)
	})
	if err != nil {
		return nil, fmt.Errorf("dataset: reading CSV: %w", err)
	}
	continuous, categorical := 0, 0
	b := NewBuilder()
	for j, c := range cols {
		if c.field.Kind == Continuous {
			b.AddFloat(names[j], c.floats)
			continuous++
		} else {
			b.AddCategoricalCodes(names[j], c.codes, c.levels)
			categorical++
		}
	}
	if tr := opts.Tracer; tr != nil {
		tr.Counter(obs.CtrRows).Add(int64(recs.rows))
		tr.Counter(obs.CtrCols).Add(int64(width))
		tr.Counter(obs.CtrColsContinuous).Add(int64(continuous))
		tr.Counter(obs.CtrColsCategorical).Add(int64(categorical))
	}
	return b.Build()
}

// decodeColumn decodes column j in one pass. Values are parsed as floats
// until the first non-missing value that does not parse; the column then
// falls back to dictionary interning from the first row, with levels in
// order of first appearance and every missing value interned as "?". A
// column with no non-missing value, or one named in ForceCategorical, is
// categorical. Only the field's kind, floats, codes and levels are set.
func (r *csvRecords) decodeColumn(j int, force bool, missing map[string]bool) column {
	offs := r.column(j)
	n := r.rows
	if !force {
		var vals []float64 // allocated at the first non-missing value
		i := 0
		for ; i < n; i++ {
			b := r.buf[offs[2*i]:offs[2*i+1]]
			if missing[string(b)] {
				if vals != nil {
					vals[i] = math.NaN()
				}
				continue
			}
			v, err := strconv.ParseFloat(string(b), 64)
			if err != nil {
				break
			}
			if vals == nil {
				vals = make([]float64, n)
				for m := range i {
					vals[m] = math.NaN()
				}
			}
			vals[i] = v
		}
		if i == n && vals != nil {
			return column{field: Field{Kind: Continuous}, floats: vals}
		}
	}
	codes := make([]int, n)
	var levels []string
	index := map[string]int{}
	missingLevel := []byte("?")
	for i := range codes {
		b := r.buf[offs[2*i]:offs[2*i+1]]
		if missing[string(b)] {
			b = missingLevel
		}
		c, ok := index[string(b)]
		if !ok {
			c = len(levels)
			levels = append(levels, string(b))
			index[levels[c]] = c
		}
		codes[i] = c
	}
	return column{field: Field{Kind: Categorical}, codes: codes, levels: levels}
}

// errInvalidDelim is the error encoding/csv gives for an invalid Comma.
var errInvalidDelim = errors.New("csv: invalid field or comment delimiter")

// validDelim is encoding/csv's rule for a usable delimiter.
func validDelim(r rune) bool {
	return r != 0 && r != '"' && r != '\r' && r != '\n' && utf8.ValidRune(r) && r != utf8.RuneError
}

// csvRecords is a tokenized CSV input. Every field is an offset pair
// into buf, trimmed of surrounding white space as strings.TrimSpace
// would: header holds the header's pairs, and fields holds the data
// records' pairs column by column, so decoding a column reads one run.
// A column's run has room for stride records, of which rows are filled.
type csvRecords struct {
	buf    []byte
	header []int
	fields []int
	rows   int
	stride int
}

// column returns column j's offset pairs, two per data record.
func (r *csvRecords) column(j int) []int {
	return r.fields[2*j*r.stride : 2*(j*r.stride+r.rows)]
}

// tokenizeCSV splits buf into records and fields with encoding/csv's
// grammar as ReadCSV configures it: TrimLeadingSpace on, LazyQuotes off,
// every record as wide as the first. "\r\n" line endings read as "\n", a
// final '\r' before the end of input is dropped, and blank lines are
// skipped. A quoted field may contain the delimiter, "" for a quote, and
// line breaks; its unescaped bytes are written over buf in place, which
// is safe because unescaping never lengthens a field. Errors are
// *csv.ParseError values with encoding/csv's sentinels, lines and
// columns. An input with no records has no header.
func tokenizeCSV(buf []byte, comma rune) (csvRecords, error) {
	s := csvScanner{buf: buf, comma: comma, commaLen: utf8.RuneLen(comma)}
	recs := csvRecords{buf: buf}
	var rec []int // the current record's offset pairs
	for {
		lo, hi, ok := s.readLine()
		for ok && (hi == lo || hi == lo+1 && buf[lo] == '\n') {
			lo, hi, ok = s.readLine()
		}
		if !ok {
			return recs, nil
		}
		recLine := s.line
		var err error
		if rec, err = s.record(rec[:0], lo, hi); err != nil {
			return recs, err
		}
		for k := 0; k < len(rec); k += 2 {
			rec[k], rec[k+1] = trimSpace(buf, rec[k], rec[k+1])
		}
		if recs.header == nil {
			// The header fixes the width. A data record takes a line of
			// its own and, delimiters and line breaks counted, at least
			// width bytes but for the last line break, so stride bounds
			// the record count.
			recs.header = slices.Clone(rec)
			rest := buf[s.off:]
			recs.stride = min(bytes.Count(rest, []byte{'\n'})+1, (len(rest)+1)/(len(rec)/2))
			recs.fields = make([]int, len(rec)*recs.stride)
			continue
		}
		if len(rec) != len(recs.header) {
			return recs, &csv.ParseError{StartLine: recLine, Line: recLine, Column: 1, Err: csv.ErrFieldCount}
		}
		for k := 0; k < len(rec); k += 2 {
			at := k*recs.stride + 2*recs.rows
			recs.fields[at], recs.fields[at+1] = rec[k], rec[k+1]
		}
		recs.rows++
	}
}

// csvScanner walks a CSV buffer line by line, counting lines the way
// encoding/csv does.
type csvScanner struct {
	buf      []byte
	off      int // start of the next unread line
	line     int // lines read so far, the final empty read included
	comma    rune
	commaLen int
}

// readLine returns the bounds of the next line, its '\n' included. A
// "\r\n" ending is rewritten in place to a "\n" one byte earlier, and a
// last line without '\n' drops one trailing '\r'. At the end of the
// buffer it returns an empty line and ok false.
func (s *csvScanner) readLine() (lo, hi int, ok bool) {
	s.line++
	lo = s.off
	if lo == len(s.buf) {
		return lo, lo, false
	}
	i := bytes.IndexByte(s.buf[lo:], '\n')
	if i < 0 {
		hi = len(s.buf)
		s.off = hi
		if s.buf[hi-1] == '\r' {
			hi--
		}
		return lo, hi, true
	}
	hi = lo + i + 1
	s.off = hi
	if hi-lo >= 2 && s.buf[hi-2] == '\r' {
		s.buf[hi-2] = '\n'
		hi--
	}
	return lo, hi, true
}

// record appends the offset pairs of one record's fields to fields. The
// record starts on the line buf[lo:hi]; quoted fields may pull in the
// lines after it. It follows encoding/csv's readRecord step for step.
func (s *csvScanner) record(fields []int, lo, hi int) ([]int, error) {
	buf := s.buf
	recLine := s.line
	lineStart, p := lo, lo
nextField:
	for {
		p = skipSpace(buf, p, hi)
		if p == hi || buf[p] != '"' {
			end, next := hi, -1
			if i := bytes.IndexRune(buf[p:hi], s.comma); i >= 0 {
				end, next = p+i, p+i+s.commaLen
			} else if p < hi && buf[hi-1] == '\n' {
				end = hi - 1
			}
			if q := bytes.IndexByte(buf[p:end], '"'); q >= 0 {
				return fields, &csv.ParseError{StartLine: recLine, Line: s.line, Column: p + q - lineStart + 1, Err: csv.ErrBareQuote}
			}
			fields = append(fields, p, end)
			if next < 0 {
				return fields, nil
			}
			p = next
			continue
		}
		// A quoted field: its unescaped bytes are written from the
		// opening quote's offset on.
		start, w := p, p
		quoteLine := s.line
		p++
		for {
			i := bytes.IndexByte(buf[p:hi], '"')
			if i < 0 {
				if p == hi {
					return fields, &csv.ParseError{StartLine: recLine, Line: quoteLine, Column: p - lineStart + 1, Err: csv.ErrQuote}
				}
				// The field runs on past the end of this line.
				w += copy(buf[w:], buf[p:hi])
				p = hi
				if nlo, nhi, _ := s.readLine(); nhi > nlo {
					quoteLine++
					lineStart, p, hi = nlo, nlo, nhi
				}
				continue
			}
			w += copy(buf[w:], buf[p:p+i])
			p += i + 1
			if p < hi && buf[p] == '"' { // "" is an escaped quote
				buf[w] = '"'
				w++
				p++
				continue
			}
			if r, _ := utf8.DecodeRune(buf[p:hi]); r == s.comma {
				fields = append(fields, start, w)
				p += s.commaLen
				continue nextField
			}
			if p == hi || buf[p] == '\n' {
				return append(fields, start, w), nil
			}
			return fields, &csv.ParseError{StartLine: recLine, Line: s.line, Column: p - lineStart, Err: csv.ErrQuote}
		}
	}
}

// trimSpace returns the bounds of buf[a:e] with leading and trailing white
// space removed, as bytes.TrimSpace defines it.
func trimSpace(buf []byte, a, e int) (int, int) {
	a = skipSpace(buf, a, e)
	for e > a {
		if c := buf[e-1]; c < utf8.RuneSelf {
			if asciiSpace[c] == 0 {
				break
			}
			e--
			continue
		}
		r, size := utf8.DecodeLastRune(buf[a:e])
		if !unicode.IsSpace(r) {
			break
		}
		e -= size
	}
	return a, e
}

// skipSpace returns the offset of the first non-space rune in buf[p:hi],
// or hi, with unicode.IsSpace's notion of space as TrimLeadingSpace uses.
func skipSpace(buf []byte, p, hi int) int {
	for p < hi {
		if c := buf[p]; c < utf8.RuneSelf {
			if asciiSpace[c] == 0 {
				return p
			}
			p++
			continue
		}
		r, size := utf8.DecodeRune(buf[p:hi])
		if !unicode.IsSpace(r) {
			return p
		}
		p += size
	}
	return hi
}

// WriteCSV writes the table as a headed CSV to w.
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Names()); err != nil {
		return err
	}
	rec := make([]string, t.NumCols())
	names := t.Names()
	for i := 0; i < t.NumRows(); i++ {
		for j, n := range names {
			rec[j] = t.ValueString(i, n)
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteCSVFile writes the table to a file path.
func (t *Table) WriteCSVFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return t.WriteCSV(f)
}

// asciiSpace marks the ASCII bytes unicode.IsSpace accepts.
var asciiSpace = [utf8.RuneSelf]uint8{'\t': 1, '\n': 1, '\v': 1, '\f': 1, '\r': 1, ' ': 1}
