package hdivexplorer

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/datagen"
)

// pipelineFixture builds a small dataset with a planted anomaly reachable
// through the public API alone.
func pipelineFixture(n int, seed int64) (*Table, []bool, []bool) {
	r := rand.New(rand.NewSource(seed))
	x := make([]float64, n)
	g := make([]string, n)
	actual := make([]bool, n)
	pred := make([]bool, n)
	for i := 0; i < n; i++ {
		x[i] = r.Float64() * 10
		if r.Intn(2) == 0 {
			g[i] = "u"
		} else {
			g[i] = "v"
		}
		actual[i] = r.Intn(2) == 0
		pred[i] = actual[i]
		p := 0.04
		if x[i] > 8 && g[i] == "u" {
			p = 0.7
		}
		if r.Float64() < p {
			pred[i] = !pred[i]
		}
	}
	tab := NewTableBuilder().AddFloat("x", x).AddCategorical("g", g).MustBuild()
	return tab, actual, pred
}

func TestPipelineEndToEnd(t *testing.T) {
	tab, actual, pred := pipelineFixture(3000, 1)
	rep, err := Pipeline(tab, ErrorRate(actual, pred), PipelineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	top := rep.Top()
	if top == nil {
		t.Fatal("no subgroups")
	}
	s := top.Itemset.String()
	if !strings.Contains(s, "x>") || !strings.Contains(s, "g=u") {
		t.Errorf("top subgroup %q does not isolate the planted anomaly", s)
	}
	if top.Divergence < 0.2 {
		t.Errorf("top divergence = %v", top.Divergence)
	}
}

func TestPipelineDefaults(t *testing.T) {
	tab, actual, pred := pipelineFixture(1000, 2)
	rep, err := Pipeline(tab, ErrorRate(actual, pred), PipelineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Defaults: s = 0.05, st = 0.1, hierarchical mode.
	for _, sg := range rep.Subgroups {
		if sg.Support < 0.05-1e-12 {
			t.Fatalf("default MinSupport not applied: %v", sg.Support)
		}
	}
}

func TestPipelineModesAndOptions(t *testing.T) {
	tab, actual, pred := pipelineFixture(2000, 3)
	o := ErrorRate(actual, pred)
	base, err := Pipeline(tab, o, PipelineOptions{Mode: Base})
	if err != nil {
		t.Fatal(err)
	}
	hier, err := Pipeline(tab, o, PipelineOptions{Mode: Hierarchical})
	if err != nil {
		t.Fatal(err)
	}
	if hier.MaxAbsDivergence()+1e-12 < base.MaxAbsDivergence() {
		t.Error("hierarchical below base")
	}
	capped, err := Pipeline(tab, o, PipelineOptions{MaxLen: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, sg := range capped.Subgroups {
		if len(sg.Itemset) > 1 {
			t.Fatal("MaxLen ignored")
		}
	}
	apriori, err := Pipeline(tab, o, PipelineOptions{Algorithm: Apriori})
	if err != nil {
		t.Fatal(err)
	}
	if len(apriori.Subgroups) != len(hier.Subgroups) {
		t.Error("Apriori and FP-Growth disagree through the facade")
	}
}

func TestPipelineExclude(t *testing.T) {
	tab, actual, pred := pipelineFixture(1000, 4)
	o := ErrorRate(actual, pred)
	rep, err := Pipeline(tab, o, PipelineOptions{Exclude: []string{"g"}})
	if err != nil {
		t.Fatal(err)
	}
	for _, sg := range rep.Subgroups {
		if strings.Contains(sg.Itemset.String(), "g=") {
			t.Fatal("excluded attribute appeared in results")
		}
	}
	if _, err := Pipeline(tab, o, PipelineOptions{Exclude: []string{"missing"}}); err == nil {
		t.Error("excluding a missing attribute should fail")
	}
	if _, err := Pipeline(tab, nil, PipelineOptions{}); err == nil {
		t.Error("nil outcome should fail")
	}
}

func TestPipelineTaxonomies(t *testing.T) {
	d := datagen.Folktables(datagen.Config{N: 8_000, Seed: 5})
	o := Numeric("income", d.Target)
	rep, err := Pipeline(d.Table, o, PipelineOptions{
		Taxonomies: datagen.FolktablesTaxonomies(d.Table),
	})
	if err != nil {
		t.Fatal(err)
	}
	// Some subgroup must use a supercategory item (an OCCP or POBP item
	// covering more than one level).
	found := false
	for _, sg := range rep.Subgroups {
		for _, it := range sg.Itemset {
			if (it.Attr == "OCCP" || it.Attr == "POBP") && len(it.Codes) > 1 {
				found = true
			}
		}
	}
	if !found {
		t.Error("no subgroup used a taxonomy supercategory item")
	}
}

func TestPipelineNumericOutcome(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	n := 2000
	x := make([]float64, n)
	target := make([]float64, n)
	for i := 0; i < n; i++ {
		x[i] = r.Float64() * 10
		target[i] = 100 + 50*x[i] + 10*r.NormFloat64()
	}
	tab := NewTableBuilder().AddFloat("x", x).MustBuild()
	rep, err := Pipeline(tab, Numeric("target", target), PipelineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	top := rep.Top()
	// The most divergent subgroup is an upper x range with mean ≫ global.
	if top.Divergence <= 100 {
		t.Errorf("top divergence = %v, want large", top.Divergence)
	}
	if !strings.Contains(top.Itemset.String(), "x>") {
		t.Errorf("top subgroup %q should be an upper x range", top.Itemset)
	}
}

func TestFacadeDiscretizers(t *testing.T) {
	tab, actual, pred := pipelineFixture(1000, 7)
	o := ErrorRate(actual, pred)
	if _, err := Tree(tab, "x", o, TreeOptions{MinSupport: 0.1}); err != nil {
		t.Error(err)
	}
	if _, err := Quantile(tab, "x", 4); err != nil {
		t.Error(err)
	}
	if _, err := UniformWidth(tab, "x", 4); err != nil {
		t.Error(err)
	}
	if _, err := ManualCuts("x", []float64{2, 5}); err != nil {
		t.Error(err)
	}
	h := FlatCategorical(tab, "g")
	if len(h.LeafItems()) != 2 {
		t.Error("FlatCategorical via facade broken")
	}
}

func TestFacadeExploreWithCustomHierarchies(t *testing.T) {
	tab, actual, pred := pipelineFixture(2000, 8)
	o := ErrorRate(actual, pred)
	hs := NewHierarchySet()
	h, err := ManualCuts("x", []float64{5, 8})
	if err != nil {
		t.Fatal(err)
	}
	hs.Add(h)
	hs.Add(FlatCategorical(tab, "g"))
	rep, err := Explore(tab, ExploreConfig{
		Outcome: o, Hierarchies: hs, MinSupport: 0.05, Mode: Base,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Top() == nil {
		t.Fatal("no subgroups")
	}
	// Manual cut at 8 means the planted x>8 ∧ g=u region is representable.
	found := rep.Find("g=u, x>8")
	if found == nil {
		t.Fatalf("expected subgroup {g=u, x>8}; top is %v", rep.Top().Itemset)
	}
	if found.Divergence < 0.2 {
		t.Errorf("planted subgroup divergence = %v", found.Divergence)
	}
}

func TestFacadeItemsAndOutcomes(t *testing.T) {
	it := ContinuousItem("age", 25, 45)
	if it.String() != "age=(25-45]" {
		t.Errorf("ContinuousItem = %q", it.String())
	}
	ci := CategoricalItem("g", "g=u", 0)
	if !ci.MatchesCode(0) || ci.MatchesCode(1) {
		t.Error("CategoricalItem broken")
	}
	actual := []bool{true, false, true, false}
	pred := []bool{true, true, false, false}
	if FalsePositiveRate(actual, pred).GlobalMean() != 0.5 {
		t.Error("FPR via facade")
	}
	if FalseNegativeRate(actual, pred).GlobalMean() != 0.5 {
		t.Error("FNR via facade")
	}
	if Accuracy(actual, pred).GlobalMean() != 0.5 {
		t.Error("Accuracy via facade")
	}
	if v := Numeric("v", []float64{1, 2, 3}).GlobalMean(); v != 2 {
		t.Error("Numeric via facade")
	}
	if math.IsNaN(ErrorRate(actual, pred).GlobalMean()) {
		t.Error("ErrorRate via facade")
	}
}

func TestFacadeCSV(t *testing.T) {
	tab := NewTableBuilder().
		AddFloat("x", []float64{1, 2}).
		AddCategorical("g", []string{"a", "b"}).
		MustBuild()
	path := t.TempDir() + "/t.csv"
	if err := tab.WriteCSVFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSVFile(path, CSVOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if back.NumRows() != 2 || back.KindOf("x") != Continuous || back.KindOf("g") != Categorical {
		t.Error("CSV round trip via facade broken")
	}
}

func TestFacadeAnalysisExports(t *testing.T) {
	tab, actual, pred := pipelineFixture(2500, 9)
	o := ErrorRate(actual, pred)
	rep, err := Pipeline(tab, o, PipelineOptions{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	top := rep.Top()
	if len(top.Itemset) >= 2 {
		phi, err := ItemShapley(tab, o, top.Itemset)
		if err != nil {
			t.Fatal(err)
		}
		sum := 0.0
		for _, v := range phi {
			sum += v
		}
		if math.Abs(sum-top.Divergence) > 1e-9 {
			t.Errorf("facade Shapley sum %v != divergence %v", sum, top.Divergence)
		}
	}
	if len(rep.Significant(0.05)) == 0 {
		t.Error("no significant subgroups through facade")
	}
	if _, err := rep.TopKDiverse(tab, 3, 0.4); err != nil {
		t.Error(err)
	}
	if p := top.PValue(); p < 0 || p > 1 {
		t.Errorf("PValue = %v", p)
	}
}

func TestFacadeExtendedOutcomes(t *testing.T) {
	actual := []bool{true, true, false, false}
	pred := []bool{true, false, true, false}
	if TruePositiveRate(actual, pred).GlobalMean() != 0.5 {
		t.Error("TPR facade")
	}
	if TrueNegativeRate(actual, pred).GlobalMean() != 0.5 {
		t.Error("TNR facade")
	}
	if Precision(actual, pred).GlobalMean() != 0.5 {
		t.Error("Precision facade")
	}
	if FalseDiscoveryRate(actual, pred).GlobalMean() != 0.5 {
		t.Error("FDR facade")
	}
	if FalseOmissionRate(actual, pred).GlobalMean() != 0.5 {
		t.Error("FOR facade")
	}
	if PredictedPositiveRate(pred).GlobalMean() != 0.5 {
		t.Error("PPR facade")
	}
	if PositiveRate(actual).GlobalMean() != 0.5 {
		t.Error("PositiveRate facade")
	}
	o, err := FromBoolFunc("c", 4, func(i int) Tristate {
		if i == 0 {
			return True
		}
		if i == 1 {
			return False
		}
		return Bottom
	})
	if err != nil || o.GlobalMean() != 0.5 {
		t.Error("FromBoolFunc facade")
	}
}

func TestFacadeFDHierarchy(t *testing.T) {
	tab := NewTableBuilder().
		AddCategorical("city", []string{"SF", "LA", "NYC", "SF"}).
		AddCategorical("state", []string{"CA", "CA", "NY", "CA"}).
		MustBuild()
	if v := FDViolation(tab, "city", "state"); v != 0 {
		t.Errorf("FDViolation = %v", v)
	}
	h, err := FromFunctionalDependency(tab, "city", "state", 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.ValidateOn(tab); err != nil {
		t.Error(err)
	}
	ih, err := IntervalHierarchyFromCuts("x", [][]float64{{0}, {-1, 0, 1}})
	if err != nil || len(ih.LeafItems()) != 4 {
		t.Error("IntervalHierarchyFromCuts facade")
	}
}

func TestFacadeMonitoringWorkflow(t *testing.T) {
	// Explore on snapshot 1, persist hierarchies and top patterns, then
	// re-evaluate on snapshot 2 whose dictionary differs.
	tab1, actual1, pred1 := pipelineFixture(2500, 10)
	o1 := ErrorRate(actual1, pred1)
	hs, err := TreeSet(tab1, o1, TreeOptions{MinSupport: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	hs.Add(FlatCategorical(tab1, "g"))
	rep, err := Explore(tab1, ExploreConfig{Outcome: o1, Hierarchies: hs, MinSupport: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := MarshalHierarchySet(hs)
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalHierarchySet(raw)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.AllItems()) != len(hs.AllItems()) {
		t.Fatal("hierarchy set changed through persistence")
	}

	tab2, actual2, pred2 := pipelineFixture(2500, 11)
	o2 := ErrorRate(actual2, pred2)
	var pats []Itemset
	for _, sg := range rep.TopK(3) {
		pats = append(pats, sg.Itemset)
	}
	got, err := EvaluateItemsets(tab2, o2, pats)
	if err != nil {
		t.Fatal(err)
	}
	// The planted anomaly (x>8 ∧ g=u) persists across snapshots; the top
	// pattern must stay strongly divergent under re-evaluation.
	if got[0].Divergence < 0.15 {
		t.Errorf("top pattern lost on new snapshot: Δ=%v (%s)", got[0].Divergence, got[0].Itemset)
	}
}
