// Package fpm implements the frequent-pattern mining core of DivExplorer
// and H-DivExplorer: Apriori and FP-Growth, extended in three ways.
//
//   - Generalized itemsets: the item universe may contain items at several
//     granularity levels of the same attribute (from an item hierarchy); an
//     itemset uses at most one item per attribute, so items of one attribute
//     are never combined even when their domains overlap.
//   - Divergence accumulation: while counting supports, the miners also
//     accumulate the outcome moments (n, Σo, Σo²) of every frequent itemset,
//     so divergence and Welch t-values are available with no extra dataset
//     pass — the key efficiency property of DivExplorer.
//   - Polarity pruning: optionally, only items whose individual divergence
//     has the same sign are combined (the paper's §V-C heuristic), pruning
//     the search space roughly by 2^(n−1) for n continuous attributes.
//
// Memory model: both miners consume item row sets through the bitvec.Set
// interface (dense vectors or compressed bitmaps, selected per item by
// density at universe build time) and recycle their hot-path buffers —
// Apriori's materialized row vectors and partial-count matrices, FP-
// Growth's conditional trees and scratch arrays — through a per-run
// engine.Pool. Accumulator merges follow the engine contract (ascending
// shard order; bitvec.Set primitives visit bits in ascending index order),
// so representation choice and buffer reuse cannot perturb the ranked
// output. DESIGN.md §11 documents the ownership rules.
package fpm

import (
	"fmt"
	"runtime"

	"repro/internal/bitvec"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/hierarchy"
	"repro/internal/outcome"
	"repro/internal/stats"
)

// Universe is the prepared item universe over which mining runs: per item,
// its covered row set, attribute group, and divergence polarity. Row sets
// are representation-selected at build time: dense items stay bitvec
// vectors, sparse ones (deep hierarchy nodes covering few rows) become
// compressed bitmaps — invisible to the miners, which consume Rows through
// the bitvec.Set contract.
type Universe struct {
	Items    []*hierarchy.Item
	Rows     []bitvec.Set // Rows[i] = rows satisfying Items[i]
	AttrID   []int        // attribute group of each item
	Polarity []int8       // sign of the item's individual divergence (+1 / -1)
	NumRows  int
	attrs    []string
	mem      MemStats
}

// MemStats summarizes the universe's row-set representations: how many
// items stayed dense vs compressed, the compressed container mix, and the
// byte footprint against the all-dense equivalent. Deterministic for a
// given dataset and item set.
type MemStats struct {
	ItemsDense       int
	ItemsCompressed  int
	ContainersArray  int
	ContainersBitmap int
	ContainersRun    int
	// Bytes is the row-set payload actually held; DenseBytes what an
	// all-dense universe would hold.
	Bytes, DenseBytes int64
}

// NewUniverse precomputes row sets, attribute groups and polarities for
// the given items. The outcome determines polarity: items whose individual
// divergence is ≥ 0 get polarity +1, otherwise -1. Polarity is computed on
// the dense vector before representation selection, so packing cannot
// perturb it.
//
// Items pack in parallel, each into its own slot: an item's row set,
// polarity and representation depend on that item alone, attribute ids
// are assigned serially beforehand, and the memory statistics are summed
// in item order afterwards, so the universe is the same at any
// GOMAXPROCS. A panic while packing is re-raised on the caller's
// goroutine.
func NewUniverse(t *dataset.Table, items []*hierarchy.Item, o *outcome.Outcome) *Universe {
	u := &Universe{
		Items:    items,
		Rows:     make([]bitvec.Set, len(items)),
		AttrID:   make([]int, len(items)),
		Polarity: make([]int8, len(items)),
		NumRows:  t.NumRows(),
	}
	attrIndex := map[string]int{}
	for i, it := range items {
		id, ok := attrIndex[it.Attr]
		if !ok {
			id = len(u.attrs)
			attrIndex[it.Attr] = id
			u.attrs = append(u.attrs, it.Attr)
		}
		u.AttrID[i] = id
	}
	err := engine.ParallelFor(len(items), runtime.GOMAXPROCS(0), nil, func(i int) {
		rows := items[i].Rows(t)
		if d := o.DivergenceOf(rows); d < 0 {
			u.Polarity[i] = -1
		} else {
			u.Polarity[i] = 1
		}
		u.Rows[i] = bitvec.Pack(rows)
	})
	if err != nil {
		panic(err)
	}
	for _, rows := range u.Rows {
		u.mem.add(rows)
	}
	return u
}

// add accounts for one item's packed row set.
func (m *MemStats) add(rows bitvec.Set) {
	denseBytes := int64(rows.NumWords()) * 8
	m.DenseBytes += denseBytes
	if c, isCompressed := rows.(*bitvec.Compressed); isCompressed {
		st := c.Stats()
		m.ItemsCompressed++
		m.ContainersArray += st.Array
		m.ContainersBitmap += st.Bitmap
		m.ContainersRun += st.Run
		m.Bytes += st.Bytes
	} else {
		m.ItemsDense++
		m.Bytes += denseBytes
	}
}

// Memory returns the universe's representation statistics.
func (u *Universe) Memory() MemStats { return u.mem }

// NumAttrs returns the number of distinct attributes among the items.
func (u *Universe) NumAttrs() int { return len(u.attrs) }

// Attr returns the attribute name for an attribute group id.
func (u *Universe) Attr(id int) string { return u.attrs[id] }

// Itemset materializes a mined index set as a hierarchy.Itemset.
func (u *Universe) Itemset(idx []int) hierarchy.Itemset {
	out := make(hierarchy.Itemset, len(idx))
	for i, j := range idx {
		out[i] = u.Items[j]
	}
	return out
}

// Validate performs sanity checks: items exist, bitset lengths match, and
// no two items of the same attribute have identical index.
func (u *Universe) Validate() error {
	for i, it := range u.Items {
		if it == nil {
			return fmt.Errorf("fpm: nil item at %d", i)
		}
		if u.Rows[i].Len() != u.NumRows {
			return fmt.Errorf("fpm: item %d bitset length %d, want %d", i, u.Rows[i].Len(), u.NumRows)
		}
	}
	return nil
}

// GeneralizedUniverse builds the universe for hierarchical exploration: all
// non-root items of every hierarchy in the set.
func GeneralizedUniverse(t *dataset.Table, hs *hierarchy.Set, o *outcome.Outcome) *Universe {
	return NewUniverse(t, hs.AllItems(), o)
}

// BaseUniverse builds the universe for base (non-hierarchical) exploration:
// leaf items only, i.e. a conventional non-overlapping discretization.
func BaseUniverse(t *dataset.Table, hs *hierarchy.Set, o *outcome.Outcome) *Universe {
	return NewUniverse(t, hs.AllLeafItems(), o)
}

// MinedItemset is one frequent itemset with its accumulated divergence
// statistics.
type MinedItemset struct {
	// Items are sorted universe indices.
	Items []int
	// Count is the absolute support count (#rows satisfying all items).
	Count int
	// M holds the outcome moments over the itemset's rows with defined
	// outcome: M.N = non-⊥ members, M.Sum = Σo, M.SumSq = Σo². Under a
	// multi-outcome bundle M belongs to the primary (lattice-determining)
	// outcome.
	M stats.Moments
	// Multi holds the moments of the bundle's extra outcomes (Multi[k-1]
	// corresponds to bundle outcome k); nil on single-outcome runs.
	Multi []stats.Moments
}

// MomentsAt returns the moments for bundle outcome k: k = 0 is the primary
// (M), higher k index into Multi.
func (m *MinedItemset) MomentsAt(k int) stats.Moments {
	if k == 0 {
		return m.M
	}
	return m.Multi[k-1]
}

// Support returns the relative support given the dataset size.
func (m *MinedItemset) Support(numRows int) float64 {
	return float64(m.Count) / float64(numRows)
}
