package fpm

import (
	"sort"
	"testing"

	"repro/internal/datagen"
	"repro/internal/engine"
	"repro/internal/outcome"
)

// checkTreeLinks asserts the FP-tree's structural invariants: every
// node's sibling list ascends strictly in tree rank, and every header
// chain visits node ids in increasing order (creation order).
func checkTreeLinks(t *testing.T, label string, tr *fpTree) {
	t.Helper()
	for n := range tr.nodes {
		prev := int32(0)
		for c := tr.nodes[n].firstChild; c >= 0; c = tr.nodes[c].nextSib {
			if tr.nodes[c].parent != int32(n) {
				t.Fatalf("%s: node %d lists child %d whose parent is %d", label, n, c, tr.nodes[c].parent)
			}
			p := tr.pos[tr.nodes[c].item]
			if p <= prev {
				t.Fatalf("%s: node %d's siblings do not ascend in rank (pos %d after %d)", label, n, p, prev)
			}
			prev = p
		}
	}
	seen := 0
	for p, head := range tr.headers {
		last := int32(-1)
		for n := head; n >= 0; n = tr.agg[n].next {
			if n <= last {
				t.Fatalf("%s: header chain %d visits node %d after %d", label, p, n, last)
			}
			if int(tr.pos[tr.nodes[n].item]) != p+1 {
				t.Fatalf("%s: header chain %d holds node %d of another item", label, p, n)
			}
			last = n
			seen++
		}
		if last != tr.tails[p] {
			t.Fatalf("%s: header chain %d ends at %d, tail is %d", label, p, last, tr.tails[p])
		}
	}
	if seen != len(tr.nodes)-1 {
		t.Fatalf("%s: header chains hold %d nodes, tree has %d", label, seen, len(tr.nodes)-1)
	}
}

// TestFPTreeSiblingInvariant pins the tree layout the build and the
// shard merge rely on, after buildShardTree and after absorb, at 1, 2 and
// 3 shards, on a boolean and a numeric outcome.
func TestFPTreeSiblingInvariant(t *testing.T) {
	const n = 4_000
	c := datagen.Compas(datagen.Config{N: n, Seed: 3})
	fpr := outcome.FalsePositiveRate(c.Actual, c.Predicted)
	f := datagen.Folktables(datagen.Config{N: n, Seed: 3})
	income := outcome.Numeric("income", f.Target)
	cases := []struct {
		name string
		u    *Universe
		o    *outcome.Outcome
	}{
		{"boolean", GeneralizedUniverse(c.Table, treeHierarchies(t, c.Table, fpr), fpr), fpr},
		{"numeric", GeneralizedUniverse(f.Table, treeHierarchies(t, f.Table, income), income), income},
	}
	for _, tc := range cases {
		minCount := n / 50
		var order []int
		for i := range tc.u.Items {
			if tc.u.Rows[i].Count() >= minCount {
				order = append(order, i)
			}
		}
		sort.SliceStable(order, func(a, b int) bool {
			return tc.u.Rows[order[a]].Count() > tc.u.Rows[order[b]].Count()
		})
		for _, shards := range []int{1, 2, 3} {
			plan := engine.NewPlan(tc.u.NumRows, shards)
			if plan.NumShards() != shards {
				t.Fatalf("%s: plan has %d shards, want %d", tc.name, plan.NumShards(), shards)
			}
			trees := make([]*fpTree, shards)
			for s := range trees {
				trees[s], _ = buildShardTree(tc.u, outcome.Single(tc.o), order, len(tc.u.Items), plan, s, nil)
				checkTreeLinks(t, tc.name+" shard tree", trees[s])
			}
			for s := 1; s < shards; s++ {
				trees[0].absorb(trees[s])
				checkTreeLinks(t, tc.name+" merged tree", trees[0])
			}
		}
	}
}
