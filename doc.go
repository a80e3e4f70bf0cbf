// Package hdivexplorer is a Go implementation of H-DivExplorer, the
// hierarchical anomalous-subgroup discovery system of Pastor, Baralis and
// de Alfaro, "A Hierarchical Approach to Anomalous Subgroup Discovery"
// (ICDE 2023).
//
// Given a dataset and an outcome function (false-positive rate, error rate,
// a numeric target such as income, …), H-DivExplorer finds interpretable
// data subgroups — conjunctions of attribute constraints — whose statistic
// diverges from the whole-dataset value. Continuous attributes are
// discretized into hierarchies of intervals by divergence-aware trees;
// exploration then mines generalized itemsets that may mix granularities
// across attributes, which finds strictly more divergent subgroups than
// fixed discretizations at the same support threshold.
//
// The quickest route is the Pipeline helper:
//
//	tab, _ := hdivexplorer.ReadCSVFile("data.csv", hdivexplorer.CSVOptions{})
//	o := hdivexplorer.FalsePositiveRate(actual, predicted)
//	rep, _ := hdivexplorer.Pipeline(tab, o, hdivexplorer.PipelineOptions{
//		TreeSupport: 0.1,
//		MinSupport:  0.05,
//	})
//	fmt.Print(rep.Table(10))
//
// For finer control, build hierarchies with the discretization functions
// (Tree, Quantile, ManualCuts, FlatCategorical, PathTaxonomy), assemble a
// HierarchySet, and call Explore. The package re-exports the library's
// types; the internal packages contain the implementations.
//
// Long-running callers use the Context variants — PipelineContext,
// ExploreContext, ExploreUniverseContext and their Multi forms. Every
// Explore and Pipeline entry point runs one exploration path: a
// single-statistic call is a bundle of one, so its report is
// byte-identical to the primary report of the multi-statistic call by
// construction. The context is checked before hierarchy assembly and
// once when the exploration starts, then polled at candidate granularity
// inside the miners, so cancellation and deadlines take effect promptly
// without affecting completed results. The same path backs the HTTP
// service (internal/server, cmd/hdivexplorerd), which caches the
// assembled hierarchies and mining universes across requests.
package hdivexplorer
