package fpm

import (
	"fmt"

	"repro/internal/bitvec"
	"repro/internal/dataset"
	"repro/internal/faultinject"
	"repro/internal/outcome"
)

// AppendUniverse incrementally maintains a universe after rows were
// appended to its dataset: t is the grown table (the old rows a frozen
// prefix of it), u the universe built over the prefix, and o the outcome
// recomputed over the full table. Only the appended row range [u.NumRows,
// t.NumRows()) is scanned per item; each item's row set grows by a tail of
// words via bitvec.Grow, which re-selects the dense/compressed
// representation with the same density rule as a from-scratch build.
//
// The result is byte-identical — row sets, representations, polarities,
// memory stats — to NewUniverse(t, u.Items, o). That equivalence is what
// lets the server swap incremental and full builds freely: it holds
// because append primitives re-encode containers from their bits alone and
// every Set visits bits in ascending order, so polarity recomputation
// accumulates floats in the same order as the dense pass. u itself is
// never mutated (dense sets are cloned, compressed ones grown
// copy-on-write), so explorations holding the old epoch's universe are
// undisturbed.
//
// The items must still describe the table: categorical dictionaries are
// append-only under dataset.Versioned, so old codes remain valid; batches
// introducing new levels (or drifting quantiles) should trigger a full
// rebuild instead, which is the server's drift policy, not a concern here.
func AppendUniverse(t *dataset.Table, u *Universe, o *outcome.Outcome) (*Universe, error) {
	if err := faultinject.Hit(faultinject.SiteUniverseAppend); err != nil {
		return nil, err
	}
	oldN, newN := u.NumRows, t.NumRows()
	if newN < oldN {
		return nil, fmt.Errorf("fpm: append universe shrinks %d -> %d rows", oldN, newN)
	}
	g := &Universe{
		Items:    u.Items,
		Rows:     make([]bitvec.Set, len(u.Items)),
		AttrID:   append([]int(nil), u.AttrID...),
		Polarity: make([]int8, len(u.Items)),
		NumRows:  newN,
		attrs:    append([]string(nil), u.attrs...),
	}
	startWord := oldN / 64
	tailWords := (newN+63)/64 - startWord
	tail := make([]uint64, tailWords)
	var mask []bool // categorical membership storage, shared by every item
	for i, it := range u.Items {
		clear(tail)
		mask = it.FillRows(t, oldN, tail, mask)
		grown := bitvec.Grow(u.Rows[i], tail, newN)
		g.Rows[i] = grown
		if d := o.DivergenceOfSet(grown); d < 0 {
			g.Polarity[i] = -1
		} else {
			g.Polarity[i] = 1
		}
		g.mem.add(grown)
	}
	return g, nil
}
