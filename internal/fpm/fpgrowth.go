package fpm

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"repro/internal/engine"
	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/outcome"
	"repro/internal/stats"
)

// fpNode is the structural half of one node of an arena-backed FP-tree:
// the 16 bytes the ancestor walks and child lookups read. Nodes live in
// the tree's flat slab and link by index (firstChild/nextSib replace the
// historical per-node child map), so a whole tree is a handful of slice
// allocations instead of one map-bearing heap object per node, and four
// nodes share a cache line.
type fpNode struct {
	item       int32 // universe item id; -1 for the root
	parent     int32
	firstChild int32
	nextSib    int32
}

// fpAgg is the aggregate half of a node, kept in a slab parallel to the
// structural one and indexed by the same node id. Beyond the usual support
// count it carries the outcome moments of the transactions (rows) flowing
// through the node, which is what lets divergence fall out of the mining
// recursion with no extra dataset pass; next chains nodes of the same item
// for the header table. Under a multi-outcome bundle the node's extra
// moments live in the tree's parallel mx slab.
type fpAgg struct {
	next  int32 // header chain of nodes with the same item
	count int
	m     stats.Moments
}

// fpTree is an arena FP-tree plus its header table. nodes, agg and mx are
// parallel slabs over one node id space: walks touch only nodes, header
// chains only agg. headers/tails are indexed by position in order; pos
// maps a universe item id to its order position + 1 (0 = absent), giving
// O(1) item→header lookup without a map. mx holds mxStride entries per
// node (empty on single-outcome runs). Conditional trees are recycled
// through growScratch, which resets pos via the order list — O(|order|),
// not O(universe).
type fpTree struct {
	nodes    []fpNode
	agg      []fpAgg
	mx       []stats.Moments
	mxStride int
	order    []int // the tree's items, most to least frequent
	headers  []int32
	tails    []int32
	pos      []int32
}

// rootFPNode and rootFPAgg are the arena's node 0.
var (
	rootFPNode = fpNode{item: -1, parent: -1, firstChild: -1, nextSib: -1}
	rootFPAgg  = fpAgg{next: -1}
)

// newFPTree builds a fresh tree (used for the per-shard root trees, which
// live for the whole run and are not pooled).
func newFPTree(order []int, numItems, mxStride int) *fpTree {
	t := &fpTree{
		mxStride: mxStride,
		order:    order,
		pos:      make([]int32, numItems),
	}
	t.nodes = append(t.nodes, rootFPNode)
	t.agg = append(t.agg, rootFPAgg)
	if mxStride > 0 {
		t.mx = make([]stats.Moments, mxStride, mxStride*64)
	}
	t.headers = make([]int32, len(order))
	t.tails = make([]int32, len(order))
	for p := range order {
		t.headers[p], t.tails[p] = -1, -1
		t.pos[order[p]] = int32(p) + 1
	}
	return t
}

// child returns node parent's child for item it, creating it (and linking
// it onto the header chain in creation order, which absorb and the growth
// recursion rely on for determinism) if absent. Sibling lists ascend by
// tree rank (pos): transactions arrive rank-sorted, so the most frequent
// child is met first, and a new child is linked in where its rank falls.
// Only the nextSib links depend on this; node ids stay in creation order.
func (t *fpTree) child(parent, it int32) int32 {
	p := t.pos[it]
	prev := int32(-1)
	c := t.nodes[parent].firstChild
	for c >= 0 {
		ci := t.nodes[c].item
		if ci == it {
			return c
		}
		if t.pos[ci] > p {
			break
		}
		prev, c = c, t.nodes[c].nextSib
	}
	if len(t.nodes) == cap(t.nodes) || len(t.agg) == cap(t.agg) || len(t.mx)+t.mxStride > cap(t.mx) {
		t.grow(len(t.nodes))
	}
	n := int32(len(t.nodes))
	t.nodes = append(t.nodes, fpNode{item: it, parent: parent, firstChild: -1, nextSib: c})
	if prev < 0 {
		t.nodes[parent].firstChild = n
	} else {
		t.nodes[prev].nextSib = n
	}
	t.agg = append(t.agg, fpAgg{next: -1})
	for k := 0; k < t.mxStride; k++ {
		t.mx = append(t.mx, stats.Moments{})
	}
	if t.headers[p-1] < 0 {
		t.headers[p-1] = n
	} else {
		t.agg[t.tails[p-1]].next = n
	}
	t.tails[p-1] = n
	return n
}

// grow makes room for n more nodes in every slab. child calls it with n =
// len(nodes) when a slab is full, doubling the slabs: append alone grows
// a large slice by only 1.25×, so a growing tree copied itself about five
// times over, most of a build's allocation.
func (t *fpTree) grow(n int) {
	t.nodes = slices.Grow(t.nodes, n)
	t.agg = slices.Grow(t.agg, n)
	t.mx = slices.Grow(t.mx, n*t.mxStride)
}

// insert adds a transaction (items already filtered to the tree's universe
// and sorted by rank) with the given weight and moments. mx, when
// non-empty, carries the moments of the bundle's extra outcomes; its values
// are added into the node slab (the caller may reuse the slice).
func (t *fpTree) insert(items []int32, count int, m stats.Moments, mx []stats.Moments) {
	cur := int32(0)
	for _, it := range items {
		c := t.child(cur, it)
		a := &t.agg[c]
		a.count += count
		a.m.AddN(m)
		if t.mxStride > 0 {
			base := int(c) * t.mxStride
			for k := range mx {
				t.mx[base+k].AddN(mx[k])
			}
		}
		cur = c
	}
}

// nodeMx returns node n's extra-moments view (nil stride-0).
func (t *fpTree) nodeMx(n int32) []stats.Moments {
	if t.mxStride == 0 {
		return nil
	}
	return t.mx[int(n)*t.mxStride : (int(n)+1)*t.mxStride]
}

// absorb merges src (a shard tree built over the same item order) into t.
// The walk is depth-first pre-order with children in ascending rank order
// — the same order insertions create them — so nodes are created, header
// chains linked and moments summed in a fixed order, and the whole mining
// recursion is deterministic regardless of how rows were split into
// shards. Counts and integer-valued moment sums merge exactly; see the
// engine package note on float exactness.
//
// One explicit stack of (dst parent, src node) frames replaces recursion:
// each node's children are pushed in reverse sibling order, and sibling
// lists ascend by rank (see child), so they pop in ascending rank. The
// slabs grow once up front by len(src.nodes)-1, an exact upper bound on
// the nodes the merge can add, so no append inside child reallocates.
func (t *fpTree) absorb(src *fpTree) {
	t.grow(len(src.nodes) - 1)
	type frame struct{ dst, src int32 }
	var stack []frame
	push := func(dst, s int32) {
		base := len(stack)
		for c := src.nodes[s].firstChild; c >= 0; c = src.nodes[c].nextSib {
			stack = append(stack, frame{dst, c})
		}
		slices.Reverse(stack[base:])
	}
	push(0, 0)
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		c := t.child(f.dst, src.nodes[f.src].item)
		a, sa := &t.agg[c], &src.agg[f.src]
		a.count += sa.count
		a.m.AddN(sa.m)
		if t.mxStride > 0 {
			base := int(c) * t.mxStride
			for k, v := range src.nodeMx(f.src) {
				t.mx[base+k].AddN(v)
			}
		}
		push(c, f.src)
	}
}

// buildShardTree builds the FP-tree of one row shard. Per-row transactions
// are assembled in CSR form — one counting pass per item over the shard's
// word range, a prefix sum, one fill pass — so the whole shard costs three
// flat slices instead of a slice header (and its growth reallocations) per
// row. Items land in each row's segment in rank order because the fill
// iterates items in order. The returned rows count is the number of
// non-empty transactions inserted.
func buildShardTree(u *Universe, bun *outcome.Bundle, order []int, numItems int, plan engine.Plan, s int, cancel *canceller) (t *fpTree, rows int) {
	nOut := bun.Len()
	t = newFPTree(order, numItems, nOut-1)
	rowLo, rowHi := plan.RowRange(s)
	wordLo, wordHi := plan.WordRange(s)
	nRows := rowHi - rowLo
	off := make([]int32, nRows+1)
	for _, it := range order {
		if cancel.cancelled() {
			return t, 0
		}
		u.Rows[it].ForEachRange(wordLo, wordHi, func(r int) {
			off[r-rowLo+1]++
		})
	}
	for i := 1; i <= nRows; i++ {
		off[i] += off[i-1]
	}
	flat := make([]int32, off[nRows])
	cur := make([]int32, nRows)
	copy(cur, off[:nRows])
	for _, it := range order {
		if cancel.cancelled() {
			return t, 0
		}
		it32 := int32(it)
		u.Rows[it].ForEachRange(wordLo, wordHi, func(r int) {
			flat[cur[r-rowLo]] = it32
			cur[r-rowLo]++
		})
	}
	var mx []stats.Moments
	if nOut > 1 {
		mx = make([]stats.Moments, nOut-1) // reused per row; insert adds values
	}
	prim := bun.Primary()
	for i := 0; i < nRows; i++ {
		items := flat[off[i]:off[i+1]]
		if len(items) == 0 {
			continue
		}
		r := rowLo + i
		var m stats.Moments
		if prim.Valid.Get(r) {
			m.Add(prim.Values[r])
		}
		for k := 1; k < nOut; k++ {
			mx[k-1] = stats.Moments{}
			if o := bun.At(k); o.Valid.Get(r) {
				mx[k-1].Add(o.Values[r])
			}
		}
		t.insert(items, 1, m, mx)
		rows++
	}
	return t, rows
}

// growScratch is the per-goroutine reusable state of the growth phase:
// the conditional support counters (item-indexed, reset via the parent
// tree's order after each use), the suffix stack, per-occurrence path and
// conditional-order buffers, and a free list of released conditional
// trees. It also holds the worker's open emission chunk and Items slab,
// shared by every branch the worker runs, so a branch that emits a
// handful of itemsets does not open chunks of its own. One scratch serves
// one branch recursion at a time; the sync.Pool in mineFPGrowth hands
// them to workers and its reuse is counted through the run's engine.Pool.
type growScratch struct {
	cnt     []int   // per universe item: conditional support count
	suffix  []int   // current itemset suffix (append/truncate stack)
	path    []int32 // one occurrence's filtered, rank-sorted ancestors
	condBuf []int   // conditional item order under construction
	trees   []*fpTree
	sets    []MinedItemset // open emission chunk (cap fpSetChunk)
	setLo   int            // start of the running branch's range in sets
	items   []int          // open Items slab
}

// endView closes acc's range of the open chunk as a full-capacity view,
// so its itemsets stay put while later branches append behind it, and
// starts the next range at the chunk's end.
func (sc *growScratch) endView(acc *fpLocal) {
	if hi := len(sc.sets); hi > sc.setLo {
		acc.sets = append(acc.sets, sc.sets[sc.setLo:hi:hi])
	}
	sc.setLo = len(sc.sets)
}

// emit appends one mined itemset to the open chunk on acc's behalf,
// closing acc's view and opening a fresh chunk when the chunk is full.
// Closed chunks are never reallocated.
func (sc *growScratch) emit(acc *fpLocal, m MinedItemset) {
	if len(sc.sets) == cap(sc.sets) {
		sc.endView(acc)
		sc.sets = make([]MinedItemset, 0, fpSetChunk)
		sc.setLo = 0
	}
	sc.sets = append(sc.sets, m)
}

// allocItems returns a fresh n-int slice carved from the open Items slab,
// at full capacity so an append by a consumer cannot clobber a neighbour.
func (sc *growScratch) allocItems(n int) []int {
	if len(sc.items)+n > cap(sc.items) {
		sc.items = make([]int, 0, max(fpChunkSize, n))
	}
	off := len(sc.items)
	sc.items = sc.items[:off+n]
	return sc.items[off : off+n : off+n]
}

// resetCnt zeroes the counters touched by a pass over tree order (a
// superset of the items actually incremented).
func (sc *growScratch) resetCnt(order []int) {
	for _, it := range order {
		sc.cnt[it] = 0
	}
}

// getTree returns a conditional tree over the given order, recycling a
// released tree's arenas when possible. The order slice is copied into
// tree-owned storage (the caller's buffer is reused by deeper recursion).
func (sc *growScratch) getTree(order []int, numItems, mxStride int, pool *engine.Pool) *fpTree {
	var t *fpTree
	if n := len(sc.trees); n > 0 {
		t = sc.trees[n-1]
		sc.trees = sc.trees[:n-1]
		pool.NoteHit()
	} else {
		pool.NoteMiss()
		t = &fpTree{pos: make([]int32, numItems)}
	}
	t.nodes = append(t.nodes[:0], rootFPNode)
	t.agg = append(t.agg[:0], rootFPAgg)
	t.mx = t.mx[:0]
	t.mxStride = mxStride
	for k := 0; k < mxStride; k++ {
		t.mx = append(t.mx, stats.Moments{})
	}
	t.order = append(t.order[:0], order...)
	if cap(t.headers) < len(order) {
		t.headers = make([]int32, len(order))
		t.tails = make([]int32, len(order))
	}
	t.headers = t.headers[:len(order)]
	t.tails = t.tails[:len(order)]
	for p, it := range order {
		t.headers[p], t.tails[p] = -1, -1
		t.pos[it] = int32(p) + 1
	}
	return t
}

// putTree releases a conditional tree back to the free list, clearing its
// pos registrations (O(|order|)) so the arena can serve any item order.
func (sc *growScratch) putTree(t *fpTree) {
	for _, it := range t.order {
		t.pos[it] = 0
	}
	sc.trees = append(sc.trees, t)
}

// mineFPGrowth mines all frequent generalized itemsets via recursive
// conditional FP-trees, in the style of FP-tax: the conditional pattern
// base of an item excludes items of the same attribute (its hierarchy
// ancestors/descendants), which enforces the one-item-per-attribute rule of
// generalized itemsets.
//
// Tree construction is sharded: each row shard builds its own tree in
// parallel, and the shard trees are folded into shard 0's tree in
// ascending shard order with rank-ordered child traversal, so the merged
// tree — and everything mined from it — is identical across shard and
// worker counts. With a single shard the build is exactly the unsharded
// construction.
//
// A deterministic budget (MaxCandidates or MaxItemsets) serializes the
// growth phase: the recursion then visits branches in the fixed serial
// order, so the truncation point — and hence the ranked output — is
// byte-identical across Workers and Shards. A capped run is bounded by
// construction, so the lost parallelism is bounded too. The soft
// dimensions (deadline, heap) stay parallel and stop cooperatively.
//
// Memory: trees are index-linked arenas, conditional trees and all
// per-branch working arrays are recycled through growScratch (reuse
// surfaces in the run pool's hit counters), the conditional pattern base
// is consumed in two header-chain passes with no materialized path list,
// and emitted itemsets and their Items are carved from per-worker chunk
// slabs.
func mineFPGrowth(u *Universe, bun *outcome.Bundle, opt Options, minCount int, plan engine.Plan, pool *engine.Pool, span *obs.Span, cancel *canceller, budget *budgetTracker, hBatch *obs.Histogram) (*Result, error) {
	res := &Result{}
	prog := opt.Progress
	nOut := bun.Len()
	numItems := len(u.Items)
	stopped := func() bool { return cancel.cancelled() || budget.softExhausted() != "" }

	// Global frequent items, ranked by support descending (ties by index).
	scan := span.Start(obs.SpanMineScan)
	prog.SetLevel(1)
	hBatch.Observe(float64(len(u.Items)))
	if err := faultinject.Hit(faultinject.SiteCandidateBatch); err != nil {
		scan.End()
		return nil, err
	}
	nAllowed := budget.allowCandidates(len(u.Items))
	type freq struct{ item, count int }
	var fr []freq
	for i := 0; i < nAllowed; i++ {
		res.Stats.Candidates++
		prog.AddCandidates(1)
		if c := u.Rows[i].Count(); c >= minCount {
			fr = append(fr, freq{i, c})
		} else {
			res.Stats.PrunedSupport++
			prog.AddPruned(1)
		}
	}
	sort.Slice(fr, func(a, b int) bool {
		if fr[a].count != fr[b].count {
			return fr[a].count > fr[b].count
		}
		return fr[a].item < fr[b].item
	})
	order := make([]int, len(fr))
	// rank maps a universe item to its root-order position. Conditional
	// orders are subsequences of the root order, so sorting by this global
	// rank is equivalent to sorting by any conditional tree's local rank.
	rank := make([]int32, numItems)
	for i, f := range fr {
		order[i] = f.item
		rank[f.item] = int32(i)
	}
	scan.End()

	// Sharded build: one tree per row shard, in parallel, then a
	// deterministic fold into shard 0's tree.
	build := span.Start(obs.SpanMineBuild)
	nShards := plan.NumShards()
	trees := make([]*fpTree, nShards)
	if err := engine.ParallelFor(nShards, opt.Workers, opt.Tracer, func(s int) {
		if cancel.cancelled() {
			trees[s] = newFPTree(order, numItems, nOut-1)
			return
		}
		t, rows := buildShardTree(u, bun, order, numItems, plan, s, cancel)
		trees[s] = t
		if tr := opt.Tracer; tr != nil {
			tr.Counter(fmt.Sprintf("%s%d", obs.CtrShardRowsPrefix, s)).Add(int64(rows))
		}
	}); err != nil {
		build.End()
		return nil, err
	}
	tree := trees[0]
	if nShards > 1 {
		merge := build.Start(obs.SpanMineMerge)
		for s := 1; s < nShards; s++ {
			if cancel.cancelled() {
				break
			}
			if err := faultinject.Hit(faultinject.SiteShardMerge); err != nil {
				merge.End()
				build.End()
				return nil, err
			}
			tree.absorb(trees[s])
		}
		merge.End()
	}
	build.End()
	if cancel.cancelled() {
		return res, nil
	}

	// branch mines the suffix {item}+suffix rooted at one header item of
	// tree t, appending to the local accumulator. Branches of distinct
	// top-level items are independent, which is what the parallel path
	// exploits. All transient state lives in the worker's scratch.
	var local func(acc *fpLocal, sc *growScratch, t *fpTree, idx int)
	local = func(acc *fpLocal, sc *growScratch, t *fpTree, idx int) {
		// Each (conditional tree, header item) pair is one candidate; bail
		// out here and the whole recursion unwinds promptly on cancel,
		// soft-budget exhaustion or an injected branch failure.
		if acc.err != nil || stopped() {
			return
		}
		it := t.order[idx]
		head := t.headers[idx]
		if head < 0 {
			return
		}
		total := 0
		var m stats.Moments
		var mx []stats.Moments
		if nOut > 1 {
			mx = make([]stats.Moments, nOut-1)
		}
		for n := head; n >= 0; n = t.agg[n].next {
			a := &t.agg[n]
			total += a.count
			m.AddN(a.m)
			if mx != nil {
				base := int(n) * t.mxStride
				for k := range mx {
					mx[k].AddN(t.mx[base+k])
				}
			}
		}
		if total < minCount {
			return
		}
		// Itemset budget: consumed in the fixed serial order (a
		// deterministic budget forces Workers=1 on the growth phase), so
		// which itemsets make the cut is reproducible.
		if budget.allowItemsets(1) < 1 {
			return
		}
		depth := len(sc.suffix) + 1
		sorted := sc.allocItems(depth)
		copy(sorted, sc.suffix)
		sorted[depth-1] = it
		sort.Ints(sorted)
		sc.emit(acc, MinedItemset{Items: sorted, Count: total, M: m, Multi: mx})
		prog.AddFrequent(1)
		// FP-Growth has no global level sweep, so the live "level" is the
		// deepest itemset emitted so far across all branches.
		prog.RaiseLevel(depth)
		if depth > acc.maxDepth {
			acc.maxDepth = depth
		}

		if opt.MaxLen > 0 && depth >= opt.MaxLen {
			return
		}

		// Conditional pattern base, pass 1: walk each occurrence's
		// ancestors — excluding items of it's attribute (generalized-
		// itemset rule) and, under polarity pruning, items of opposite
		// polarity — accumulating conditional supports in the scratch
		// counters. No path is materialized.
		attr, pol := u.AttrID[it], u.Polarity[it]
		pathsFound := 0
		for n := head; n >= 0; n = t.agg[n].next {
			w := t.agg[n].count
			pathLen := 0
			for p := t.nodes[n].parent; t.nodes[p].item >= 0; p = t.nodes[p].parent {
				pi := int(t.nodes[p].item)
				if u.AttrID[pi] == attr {
					continue
				}
				if opt.PolarityPrune && u.Polarity[pi] != pol {
					acc.prunedPolarity++
					prog.AddPruned(1)
					continue
				}
				sc.cnt[pi] += w
				pathLen++
			}
			if pathLen > 0 {
				pathsFound++
			}
		}
		if pathsFound == 0 {
			sc.resetCnt(t.order)
			return
		}
		// Conditional universe: items frequent within the base, keeping
		// the parent tree's rank order. The whole batch must fit the
		// remaining candidate budget; otherwise this expansion stops here.
		if budget.allowCandidates(len(t.order)) < len(t.order) {
			sc.resetCnt(t.order)
			return
		}
		condOrder := sc.condBuf[:0]
		for _, oi := range t.order {
			acc.candidates++
			prog.AddCandidates(1)
			if sc.cnt[oi] >= minCount {
				condOrder = append(condOrder, oi)
			} else {
				acc.prunedSupport++
				prog.AddPruned(1)
			}
		}
		sc.condBuf = condOrder
		if len(condOrder) == 0 {
			sc.resetCnt(t.order)
			return
		}
		hBatch.Observe(float64(len(condOrder)))
		if err := faultinject.Hit(faultinject.SiteCandidateBatch); err != nil {
			acc.err = err
			sc.resetCnt(t.order)
			return
		}
		// Pass 2: re-walk the header chain, now inserting each occurrence's
		// filtered path (same exclusions, plus the conditional support
		// floor) into the conditional tree in chain order — exactly the
		// order the historical pattern-base list was consumed in.
		cond := sc.getTree(condOrder, numItems, t.mxStride, pool)
		for n := head; n >= 0; n = t.agg[n].next {
			path := sc.path[:0]
			for p := t.nodes[n].parent; t.nodes[p].item >= 0; p = t.nodes[p].parent {
				pi := int(t.nodes[p].item)
				if u.AttrID[pi] == attr {
					continue
				}
				if opt.PolarityPrune && u.Polarity[pi] != pol {
					continue
				}
				if sc.cnt[pi] >= minCount {
					path = append(path, int32(pi))
				}
			}
			sc.path = path
			if len(path) == 0 {
				continue
			}
			// Insertion sort ascending by global rank (paths are short and
			// near-sorted: ancestors arrive in descending rank order).
			for i := 1; i < len(path); i++ {
				x := path[i]
				rx := rank[x]
				j := i - 1
				for j >= 0 && rank[path[j]] > rx {
					path[j+1] = path[j]
					j--
				}
				path[j+1] = x
			}
			cond.insert(path, t.agg[n].count, t.agg[n].m, t.nodeMx(n))
		}
		sc.resetCnt(t.order)
		sc.suffix = append(sc.suffix, it)
		for i := len(cond.order) - 1; i >= 0; i-- {
			local(acc, sc, cond, i)
		}
		sc.suffix = sc.suffix[:len(sc.suffix)-1]
		sc.putTree(cond)
	}

	// Top-level branches, least-frequent first, optionally in parallel.
	// Each branch accumulates locally; concatenating in branch order makes
	// the output identical to the serial traversal. Scratches are pooled
	// per worker; their reuse counts into the run pool's hit rate.
	grow := span.Start(obs.SpanMineGrow)
	defer grow.End()
	nBranch := len(tree.order)
	locals := make([]fpLocal, nBranch)
	var scratchPool sync.Pool
	getScratch := func() *growScratch {
		if v := scratchPool.Get(); v != nil {
			pool.NoteHit()
			return v.(*growScratch)
		}
		pool.NoteMiss()
		return &growScratch{cnt: make([]int, numItems)}
	}
	growWorkers := opt.Workers
	if opt.Budget.deterministic() {
		// Serialize so budget consumption follows the fixed branch order;
		// the budget bounds the total work, so serial stays affordable.
		growWorkers = 1
	}
	if err := engine.ParallelFor(nBranch, growWorkers, opt.Tracer, func(j int) {
		idx := nBranch - 1 - j
		sc := getScratch()
		local(&locals[j], sc, tree, idx)
		sc.endView(&locals[j])
		// On a panic the scratch is simply dropped (its counters may be
		// dirty); ParallelFor recovers and the run fails.
		scratchPool.Put(sc)
	}); err != nil {
		return nil, err
	}
	maxDepth := 0
	total := len(res.Itemsets)
	for j := range locals {
		if locals[j].err != nil {
			return nil, locals[j].err
		}
		for _, ch := range locals[j].sets {
			total += len(ch)
		}
		res.Stats.Candidates += locals[j].candidates
		res.Stats.PrunedSupport += locals[j].prunedSupport
		res.Stats.PrunedPolarity += locals[j].prunedPolarity
		if locals[j].maxDepth > maxDepth {
			maxDepth = locals[j].maxDepth
		}
	}
	// One exact-size allocation for the concatenated result: branch slabs
	// are copied in branch order, reproducing the serial traversal order.
	all := make([]MinedItemset, len(res.Itemsets), total)
	copy(all, res.Itemsets)
	for j := range locals {
		for _, ch := range locals[j].sets {
			all = append(all, ch...)
		}
	}
	res.Itemsets = all
	opt.Tracer.MaxGauge(obs.GaugeMaxDepth, float64(maxDepth))
	return res, nil
}

// fpLocal accumulates one FP-Growth branch's results. Its itemsets are
// views into the emission chunks of the worker that ran it (see
// growScratch.emit); the run's result is assembled by one exact-size
// concatenation of every branch's views in branch order.
type fpLocal struct {
	sets           [][]MinedItemset // views of the branch's emissions, in order
	candidates     int
	prunedSupport  int
	prunedPolarity int
	maxDepth       int
	err            error // injected failure surfaced from this branch
}

// fpChunkSize is the slab granularity for emitted Items storage;
// fpSetChunk the itemsets per emission chunk.
const (
	fpChunkSize = 4096
	fpSetChunk  = 1024
)
