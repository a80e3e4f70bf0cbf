// Package sliceline implements the SliceLine baseline (Sagadeeva & Boehm,
// SIGMOD 2021) used in the paper's §VI-G comparison. SliceLine searches the
// lattice of slices for the top-k by the score
//
//	σ(S) = α·(ē_S/ē − 1) − (1−α)·(n/|S| − 1)
//
// where ē_S is the average error in the slice, ē the overall average error,
// |S| the slice size and n the dataset size: α trades the importance of a
// high error rate against slice size. Like base DivExplorer it operates on
// a fixed (leaf-item) discretization with a minimum support threshold; the
// enumeration here reuses the bitset miner, which yields identical slices
// to the original's linear-algebra formulation.
package sliceline

import (
	"fmt"
	"sort"

	"repro/internal/fpm"
	"repro/internal/hierarchy"
	"repro/internal/outcome"
)

// Options configures the search.
type Options struct {
	// Alpha is the error-vs-size weight α ∈ (0, 1] (default 0.95, the
	// reference implementation's default).
	Alpha float64
	// MinSupport is the minimum slice support (default 0.01).
	MinSupport float64
	// K is the number of slices returned (default 10).
	K int
	// MaxLen bounds slice length (default 0 = unlimited).
	MaxLen int
}

func (o Options) withDefaults() Options {
	if o.Alpha <= 0 || o.Alpha > 1 {
		o.Alpha = 0.95
	}
	if o.MinSupport <= 0 {
		o.MinSupport = 0.01
	}
	if o.K <= 0 {
		o.K = 10
	}
	return o
}

// Slice is one scored slice.
type Slice struct {
	Itemset  hierarchy.Itemset
	ItemIdx  []int
	Count    int
	Support  float64
	AvgError float64
	Score    float64
}

// String renders the slice compactly.
func (s *Slice) String() string {
	return fmt.Sprintf("{%s} sup=%.3f err=%.3f score=%.3f", s.Itemset, s.Support, s.AvgError, s.Score)
}

// TopK returns the k highest-scoring slices over the item universe (use
// leaf items for the faithful baseline).
func TopK(u *fpm.Universe, o *outcome.Outcome, opt Options) ([]Slice, error) {
	opt = opt.withDefaults()
	res, err := fpm.MineMulti(u, outcome.Single(o), fpm.Options{MinSupport: opt.MinSupport, MaxLen: opt.MaxLen})
	if err != nil {
		return nil, err
	}
	globalErr := o.GlobalMean()
	n := float64(u.NumRows)
	slices := make([]Slice, 0, len(res.Itemsets))
	for _, m := range res.Itemsets {
		if m.M.N == 0 {
			continue
		}
		avg := m.M.Mean()
		var ratio float64
		if globalErr > 0 {
			ratio = avg/globalErr - 1
		}
		score := opt.Alpha*ratio - (1-opt.Alpha)*(n/float64(m.Count)-1)
		slices = append(slices, Slice{
			Itemset:  u.Itemset(m.Items),
			ItemIdx:  m.Items,
			Count:    m.Count,
			Support:  m.Support(u.NumRows),
			AvgError: avg,
			Score:    score,
		})
	}
	sort.SliceStable(slices, func(a, b int) bool {
		if slices[a].Score != slices[b].Score {
			return slices[a].Score > slices[b].Score
		}
		return slices[a].Count > slices[b].Count
	})
	if len(slices) > opt.K {
		slices = slices[:opt.K]
	}
	return slices, nil
}
