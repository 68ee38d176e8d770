package selector

import (
	"fmt"
	"math"
	"testing"

	"github.com/essential-stats/etlopt/internal/costmodel"
	"github.com/essential-stats/etlopt/internal/css"
	"github.com/essential-stats/etlopt/internal/stats"
	"github.com/essential-stats/etlopt/internal/workflow"
)

// buildUniverse analyzes a workflow and produces the selection universe
// with a memory-only coster.
func buildUniverse(t *testing.T, g *workflow.Graph, cat *workflow.Catalog, opt css.Options) *Universe {
	t.Helper()
	an, err := workflow.Analyze(g, cat)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	res, err := css.Generate(an, opt)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	coster := costmodel.NewMemoryCoster(res, an.Cat)
	u, err := NewUniverseOpts(res, coster, UniverseOptions{})
	if err != nil {
		t.Fatalf("NewUniverseOpts: %v", err)
	}
	return u
}

// indexOf returns a statistic's index in the universe.
func indexOf(t *testing.T, u *Universe, s stats.Stat) int32 {
	t.Helper()
	i, ok := u.Res.Lookup(s)
	if !ok {
		t.Fatalf("statistic %v not in the universe", s.Key())
	}
	return i
}

// retail builds the paper's Orders/Product/Customer flow.
func retail(t *testing.T) (*workflow.Graph, *workflow.Catalog) {
	t.Helper()
	cat := &workflow.Catalog{Relations: []*workflow.Relation{
		{Name: "Orders", Card: 10000, Columns: []workflow.Column{
			{Name: "oid", Domain: 10000}, {Name: "pid", Domain: 500}, {Name: "cid", Domain: 2000},
		}},
		{Name: "Product", Card: 500, Columns: []workflow.Column{
			{Name: "pid", Domain: 500}, {Name: "price", Domain: 1000},
		}},
		{Name: "Customer", Card: 2000, Columns: []workflow.Column{
			{Name: "cid", Domain: 2000}, {Name: "region", Domain: 50},
		}},
	}}
	b := workflow.NewBuilder("retail")
	o := b.Source("Orders")
	p := b.Source("Product")
	c := b.Source("Customer")
	j1 := b.Join(o, p, workflow.Attr{Rel: "Orders", Col: "pid"}, workflow.Attr{Rel: "Product", Col: "pid"})
	j2 := b.Join(j1, c, workflow.Attr{Rel: "Orders", Col: "cid"}, workflow.Attr{Rel: "Customer", Col: "cid"})
	b.Sink(j2, "dw")
	return b.Graph(), cat
}

func TestClosureBasic(t *testing.T) {
	g, cat := retail(t)
	u := buildUniverse(t, g, cat, css.Options{})
	// Observing nothing: nothing computable.
	if u.Covered(make([]bool, len(u.Stats))) {
		t.Fatal("empty observation should not cover S_C")
	}
	// Observing everything observable must cover (checked in NewUniverseOpts,
	// re-checked here).
	all := append([]bool(nil), u.Observable...)
	if !u.Covered(all) {
		t.Fatal("full observation should cover S_C")
	}
}

func TestGreedyCovers(t *testing.T) {
	g, cat := retail(t)
	u := buildUniverse(t, g, cat, css.DefaultOptions())
	sel, err := Greedy(u)
	if err != nil {
		t.Fatalf("Greedy: %v", err)
	}
	observed := make([]bool, len(u.Stats))
	for _, s := range sel.Observe {
		observed[indexOf(t, u, s)] = true
	}
	if !u.Covered(observed) {
		t.Fatal("greedy selection does not cover S_C")
	}
	if sel.Cost <= 0 {
		t.Fatalf("greedy cost = %v, want positive", sel.Cost)
	}
}

// TestGreedyDeterministic guards the tie-break: selecting twice over
// independently built universes must pick the same statistics in the same
// order, even when several derivations cost the same.
func TestGreedyDeterministic(t *testing.T) {
	for _, opt := range []css.Options{{}, css.DefaultOptions()} {
		g, cat := retail(t)
		var prev []string
		for trial := 0; trial < 2; trial++ {
			u := buildUniverse(t, g, cat, opt)
			sel, err := Greedy(u)
			if err != nil {
				t.Fatalf("Greedy: %v", err)
			}
			keys := make([]string, len(sel.Observe))
			for i, s := range sel.Observe {
				keys[i] = fmt.Sprintf("%v", s.Key())
			}
			if trial == 0 {
				prev = keys
				continue
			}
			if len(keys) != len(prev) {
				t.Fatalf("greedy picked %d stats, then %d", len(prev), len(keys))
			}
			for i := range keys {
				if keys[i] != prev[i] {
					t.Fatalf("greedy pick %d differs between runs: %s vs %s", i, prev[i], keys[i])
				}
			}
		}
	}
}

func TestExactNoWorseThanGreedy(t *testing.T) {
	for _, opt := range []css.Options{{}, css.DefaultOptions()} {
		g, cat := retail(t)
		u := buildUniverse(t, g, cat, opt)
		gr, err := Greedy(u)
		if err != nil {
			t.Fatalf("Greedy: %v", err)
		}
		ex, err := newScratch(u).solveExact(0)
		if err != nil {
			t.Fatalf("Exact: %v", err)
		}
		if !ex.Optimal {
			t.Fatal("Exact did not prove optimality on a small instance")
		}
		if ex.Cost > gr.Cost+1e-6 {
			t.Fatalf("exact cost %v worse than greedy %v", ex.Cost, gr.Cost)
		}
		observed := make([]bool, len(u.Stats))
		for _, s := range ex.Observe {
			observed[indexOf(t, u, s)] = true
		}
		if !u.Covered(observed) {
			t.Fatal("exact selection does not cover S_C")
		}
	}
}

// bruteForceOptimum is solveExact's reference: the cost of the cheapest subset of
// the observable statistics that covers S_C, found by trying every subset.
func bruteForceOptimum(u *Universe) float64 {
	var obs []int
	for i, ok := range u.Observable {
		if ok {
			obs = append(obs, i)
		}
	}
	best := math.Inf(1)
	observed := make([]bool, len(u.Stats))
	for mask := 0; mask < 1<<len(obs); mask++ {
		for b, i := range obs {
			observed[i] = mask&(1<<b) != 0
		}
		if cost := u.ObservedCost(observed); cost < best && u.Covered(observed) {
			best = cost
		}
	}
	return best
}

// TestExactMatchesBruteForce holds solveExact to its definition: on the retail
// flow under both CSS option sets, and on every generated universe of seeds
// 0–199 small enough to enumerate (at most 16 observable statistics),
// solveExact's proven optimum costs what the cheapest covering subset does.
func TestExactMatchesBruteForce(t *testing.T) {
	type instance struct {
		name string
		u    *Universe
	}
	var cases []instance
	for _, opt := range []css.Options{{}, css.DefaultOptions()} {
		g, cat := retail(t)
		cases = append(cases, instance{fmt.Sprintf("retail %+v", opt), buildUniverse(t, g, cat, opt)})
	}
	for seed := int64(0); seed < 200; seed++ {
		u := fuzzUniverse(t, seed)
		observable := 0
		for _, ok := range u.Observable {
			if ok {
				observable++
			}
		}
		if observable <= 16 {
			cases = append(cases, instance{fmt.Sprintf("seed %d", seed), u})
		}
	}
	if len(cases) < 2+70 {
		t.Fatalf("only %d generated universes have at most 16 observables, want 70", len(cases)-2)
	}
	t.Logf("retail under 2 option sets and %d generated universes", len(cases)-2)
	for _, c := range cases {
		ex, err := newScratch(c.u).solveExact(0)
		if err != nil {
			t.Fatalf("%s: Exact: %v", c.name, err)
		}
		if !ex.Optimal {
			t.Errorf("%s: Exact did not prove optimality", c.name)
		}
		if want := bruteForceOptimum(c.u); math.Abs(ex.Cost-want) > 1e-6 {
			t.Errorf("%s: Exact cost %v, brute-force optimum %v", c.name, ex.Cost, want)
		}
	}
}

// TestAmortizationSharedAttribute reproduces the Figure 7 insight: when T1
// joins T2 and T3 on the same attribute, the optimal solution shares
// H^a_{T1} across both join estimates instead of paying for it twice.
func TestAmortizationSharedAttribute(t *testing.T) {
	cat := &workflow.Catalog{Relations: []*workflow.Relation{
		{Name: "T1", Card: 1000, Columns: []workflow.Column{{Name: "a", Domain: 9}}},
		{Name: "T2", Card: 1000, Columns: []workflow.Column{{Name: "a", Domain: 9}}},
		{Name: "T3", Card: 1000, Columns: []workflow.Column{{Name: "a", Domain: 9}}},
	}}
	b := workflow.NewBuilder("shared")
	t1 := b.Source("T1")
	t2 := b.Source("T2")
	t3 := b.Source("T3")
	j1 := b.Join(t1, t2, workflow.Attr{Rel: "T1", Col: "a"}, workflow.Attr{Rel: "T2", Col: "a"})
	j2 := b.Join(j1, t3, workflow.Attr{Rel: "T1", Col: "a"}, workflow.Attr{Rel: "T3", Col: "a"})
	b.Sink(j2, "dw")
	u := buildUniverse(t, b.Graph(), cat, css.Options{})
	sel, err := newScratch(u).solveExact(0)
	if err != nil {
		t.Fatalf("Exact: %v", err)
	}
	// The shared-attribute solution: H^a on each of T1, T2, T3 (9 units
	// each = 27) covers everything: all SE cardinalities follow via J1/J3
	// composition. Anything above 3 histograms plus a few counters means
	// sharing failed.
	if sel.Cost > 27+6+1e-6 {
		t.Fatalf("exact cost %v; sharing of H^a_T1 apparently not exploited", sel.Cost)
	}
	histsSeen := map[string]int{}
	for _, s := range sel.Observe {
		if s.Kind == stats.Hist {
			histsSeen[s.Label(nil)]++
		}
	}
	if len(histsSeen) > 3 {
		t.Fatalf("observed %d distinct histograms, want at most 3: %v", len(histsSeen), histsSeen)
	}
}

func TestUnionDivisionCanReduceMemory(t *testing.T) {
	// A flow where the middle relation has a huge second join attribute
	// domain: without union–division, covering |T1⋈T2| requires a joint
	// histogram on T1 (pid,cid) — expensive. With union–division the
	// framework can use the observable T1⋈T3⋈T2 route plus small reject
	// statistics.
	cat := &workflow.Catalog{Relations: []*workflow.Relation{
		{Name: "T1", Card: 100000, Columns: []workflow.Column{
			{Name: "j13", Domain: 50}, {Name: "j12", Domain: 40000},
		}},
		{Name: "T2", Card: 50000, Columns: []workflow.Column{{Name: "j12", Domain: 40000}}},
		{Name: "T3", Card: 50, Columns: []workflow.Column{{Name: "j13", Domain: 50}}},
	}}
	b := workflow.NewBuilder("ud")
	t1 := b.Source("T1")
	t2 := b.Source("T2")
	t3 := b.Source("T3")
	j1 := b.Join(t1, t3, workflow.Attr{Rel: "T1", Col: "j13"}, workflow.Attr{Rel: "T3", Col: "j13"})
	j2 := b.Join(j1, t2, workflow.Attr{Rel: "T1", Col: "j12"}, workflow.Attr{Rel: "T2", Col: "j12"})
	b.Sink(j2, "dw")
	uPlain := buildUniverse(t, b.Graph(), cat, css.Options{})
	uUD := buildUniverse(t, b.Graph(), cat, css.Options{UnionDivision: true})
	selPlain, err := newScratch(uPlain).solveExact(0)
	if err != nil {
		t.Fatalf("Exact(plain): %v", err)
	}
	selUD, err := newScratch(uUD).solveExact(0)
	if err != nil {
		t.Fatalf("Exact(ud): %v", err)
	}
	if selUD.Cost > selPlain.Cost+1e-6 {
		t.Fatalf("union–division made things worse: %v vs %v", selUD.Cost, selPlain.Cost)
	}
}

func TestFreeSourceStatsPreferred(t *testing.T) {
	g, cat := retail(t)
	an, err := workflow.Analyze(g, cat)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	res, err := css.Generate(an, css.Options{})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	optimum := func() float64 {
		t.Helper()
		u, err := NewUniverseOpts(res, costmodel.NewMemoryCoster(res, an.Cat), UniverseOptions{})
		if err != nil {
			t.Fatalf("NewUniverseOpts: %v", err)
		}
		sel, err := newScratch(u).solveExact(0)
		if err != nil {
			t.Fatalf("Exact: %v", err)
		}
		return sel.Cost
	}
	paid := optimum()
	// Once the catalog declares Product's source statistics, all of them
	// are free, so the exact optimum must be strictly cheaper.
	an.Cat.Relation("Product").HasSourceStats = true
	if free := optimum(); free >= paid {
		t.Fatalf("free source stats did not reduce cost: %v vs %v", free, paid)
	}
}

func TestPlanWithBudget(t *testing.T) {
	g, cat := retail(t)
	u := buildUniverse(t, g, cat, css.DefaultOptions())
	// A generous budget: single run.
	one, err := PlanWithBudget(u, 1<<40)
	if err != nil {
		t.Fatalf("PlanWithBudget(large): %v", err)
	}
	if one.NumRuns() != 1 {
		t.Fatalf("large budget needs %d runs, want 1", one.NumRuns())
	}
	// A tight budget forces multiple runs; every run must respect it.
	tight, err := PlanWithBudget(u, 600)
	if err != nil {
		t.Fatalf("PlanWithBudget(tight): %v", err)
	}
	if tight.NumRuns() < 2 {
		t.Fatalf("tight budget produced %d runs, want >= 2", tight.NumRuns())
	}
	for r, mem := range tight.Memory {
		if mem > 600 {
			t.Errorf("run %d uses %d units, above budget 600", r, mem)
		}
	}
	// The learned union across runs must cover S_C.
	learned := make([]bool, len(u.Stats))
	for _, run := range tight.Runs {
		for _, i := range run {
			learned[i] = true
		}
	}
	if !u.Covered(learned) {
		t.Fatal("multi-run plan does not cover S_C")
	}
	if _, err := PlanWithBudget(u, 0); err == nil {
		t.Fatal("zero budget: want error")
	}
}

func TestSelectDispatch(t *testing.T) {
	g, cat := retail(t)
	an, err := workflow.Analyze(g, cat)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	res, err := css.Generate(an, css.Options{})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	u, err := NewUniverseOpts(res, costmodel.NewMemoryCoster(res, an.Cat), UniverseOptions{})
	if err != nil {
		t.Fatalf("NewUniverseOpts: %v", err)
	}
	for _, m := range []Method{MethodExact, MethodGreedy} {
		sel, err := SelectUniverse(u, Options{Method: m})
		if err != nil {
			t.Fatalf("Select(%v): %v", m, err)
		}
		if len(sel.Observe) == 0 {
			t.Fatalf("Select(%v): empty selection", m)
		}
	}
}

func TestSelectionDeterministic(t *testing.T) {
	g, cat := retail(t)
	u := buildUniverse(t, g, cat, css.DefaultOptions())
	a, err := newScratch(u).solveExact(0)
	if err != nil {
		t.Fatalf("Exact: %v", err)
	}
	b, err := newScratch(u).solveExact(0)
	if err != nil {
		t.Fatalf("Exact: %v", err)
	}
	if a.Cost != b.Cost || len(a.Observe) != len(b.Observe) {
		t.Fatalf("nondeterministic exact: %v/%d vs %v/%d", a.Cost, len(a.Observe), b.Cost, len(b.Observe))
	}
	for i := range a.Observe {
		if a.Observe[i].Key() != b.Observe[i].Key() {
			t.Fatalf("selection order differs at %d", i)
		}
	}
}
