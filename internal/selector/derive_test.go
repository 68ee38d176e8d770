package selector

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"github.com/essential-stats/etlopt/internal/costmodel"
	"github.com/essential-stats/etlopt/internal/css"
	"github.com/essential-stats/etlopt/internal/stats"
	"github.com/essential-stats/etlopt/internal/suite"
	"github.com/essential-stats/etlopt/internal/workflow"
)

// TestGoalDirectedPass holds each read of a goal-directed cost pass — the
// prices of the uncovered requirements (the bound pass), the cheapest of
// them (greedy), one derivation walk (the branching pass) and the walks
// from all of them (the budget planner) — to the same pass run until every
// statistic's price is final. Inputs are the suite's universes and
// generated ones, each under a free set (the closure of a random
// observation set) and a banned set drawn from its seed, in both modes and
// under the initial and the widened observability.
func TestGoalDirectedPass(t *testing.T) {
	type input struct {
		name string
		u    *Universe
		seed int64
	}
	var inputs []input
	for _, w := range suite.All() {
		an, err := workflow.Analyze(w.Graph, w.Catalog)
		if err != nil {
			t.Fatalf("%s: Analyze: %v", w.Name, err)
		}
		res, err := css.Generate(an, css.DefaultOptions())
		if err != nil {
			t.Fatalf("%s: Generate: %v", w.Name, err)
		}
		u, err := NewUniverseOpts(res, costmodel.NewMemoryCoster(res, an.Cat), UniverseOptions{})
		if err != nil {
			t.Fatalf("%s: NewUniverseOpts: %v", w.Name, err)
		}
		inputs = append(inputs, input{w.Name, u, int64(w.ID)})
	}
	if !testing.Short() {
		for seed := int64(0); seed < 200; seed++ {
			inputs = append(inputs, input{fmt.Sprintf("seed%d", seed), fuzzUniverse(t, seed), seed})
		}
	}
	for _, in := range inputs {
		u, n := in.u, len(in.u.Stats)
		rng := rand.New(rand.NewSource(in.seed))
		observed, banned := make([]bool, n), make([]bool, n)
		for i := range observed {
			observed[i] = u.Observable[i] && rng.Intn(8) == 0
			banned[i] = rng.Intn(10) == 0
		}
		free := u.closure(observed)
		widened := make([]bool, n)
		for i := range widened {
			widened[i] = true
		}
		var uncovered []int32
		for _, r := range u.Required {
			if !free[r] {
				uncovered = append(uncovered, r)
			}
		}
		for _, obs := range [][]bool{nil, widened} {
			for _, mode := range []deriveMode{deriveSum, deriveMax} {
				name := fmt.Sprintf("%s widened=%t mode=%d", in.name, obs != nil, mode)
				ref := newScratch(u)
				ref.deriveCosts(obs, free, banned, mode)
				want := make([]float64, n)
				for i := range want {
					want[i] = ref.cost(int32(i))
				}
				type walked struct {
					leaves []int32
					cost   float64
					ok     bool
				}
				wantWalk := map[int32]walked{}
				wantCheapest := int32(-1)
				for _, r := range uncovered {
					leaves, cost, ok := ref.walkDerivation(r)
					wantWalk[r] = walked{slices.Clone(leaves), cost, ok}
					if !math.IsInf(want[r], 1) && (wantCheapest < 0 || want[r] < want[wantCheapest] || want[r] == want[wantCheapest] && r < wantCheapest) {
						wantCheapest = r
					}
				}
				checkWalk := func(goal string, s *scratch, r int32) {
					leaves, cost, ok := s.walkDerivation(r)
					if w := wantWalk[r]; ok != w.ok || cost != w.cost || !slices.Equal(leaves, w.leaves) {
						t.Errorf("%s: %s: walk from %d = %v, %v, %t; complete pass %v, %v, %t",
							name, goal, r, leaves, cost, ok, w.leaves, w.cost, w.ok)
					}
				}

				s := newScratch(u)
				s.deriveCosts(obs, free, banned, mode)
				for _, r := range uncovered {
					if got := s.cost(r); got != want[r] {
						t.Errorf("%s: requirement prices: %d costs %v, complete pass %v", name, r, got, want[r])
					}
				}
				s.deriveCosts(obs, free, banned, mode)
				if got := s.cheapestRequired(); got != wantCheapest {
					t.Errorf("%s: cheapest requirement %d, complete pass %d", name, got, wantCheapest)
				} else if got >= 0 {
					checkWalk("cheapest requirement", s, got)
				}
				for _, r := range uncovered {
					s.deriveCosts(obs, free, banned, mode)
					checkWalk("one walk", s, r)
				}
				s.deriveCosts(obs, free, banned, mode)
				for _, r := range uncovered {
					checkWalk("every walk", s, r)
				}
			}
		}
	}
}

// graphUniverse builds a universe straight from a candidate-set graph:
// statistic i costs cost[i] (unobservable when negative) and has the
// candidate sets sets[i].
func graphUniverse(cost []float64, sets [][][]int32, required ...int32) *Universe {
	n := len(cost)
	u := &Universe{Stats: make([]stats.Stat, n), Observable: make([]bool, n), Cost: make([]float64, n),
		Mem: make([]int64, n), Required: required, cssOff: []int32{0}, inOff: []int32{0}}
	for i, c := range cost {
		u.Observable[i], u.Cost[i] = c >= 0, math.Abs(c)
		for _, in := range sets[i] {
			u.addCSS(in...)
		}
		u.cssOff = append(u.cssOff, int32(u.numCSS()))
	}
	u.pruneUnderivable()
	return u
}

// TestWalkSettlesTies: a walk compares prices tied with its target's, which
// the pass may not have settled when the target settled. T (0) costs 5
// through B (1) and through A (2) ← F (3) ← G (4); B and G are observed at
// 5, and T is taken off the heap before F, so A is still unpriced then. The
// walk must settle through the tie and take A, the first candidate set, as
// it does after a complete pass.
func TestWalkSettlesTies(t *testing.T) {
	u := graphUniverse([]float64{-1, 5, -1, -1, 5}, [][][]int32{{{2}, {1}}, nil, {{3}}, {{4}}, nil}, 0)
	s := newScratch(u)
	s.deriveCosts(nil, nil, nil, deriveSum)
	leaves, cost, ok := s.walkDerivation(0)
	if !ok || cost != 5 || !slices.Equal(leaves, []int32{4}) {
		t.Errorf("walk from T = %v, %v, %t; want [4], 5, true", leaves, cost, ok)
	}
}

// TestGreedyNotDerivable: greedy reports an underivable requirement only
// from a pass that settled everything it could, and completes while an
// alternative derivation survives the bans.
func TestGreedyNotDerivable(t *testing.T) {
	g, cat := retail(t)
	u := buildUniverse(t, g, cat, css.DefaultOptions())
	n := len(u.Stats)
	// r is a required statistic observable directly and derivable through a
	// candidate set too; ancestors are the statistics any derivation of r
	// can use.
	r := int32(-1)
	for _, q := range u.Required {
		if c, to := u.css(q); u.Observable[q] && u.Cost[q] > 0 && c < to {
			r = q
			break
		}
	}
	if r < 0 {
		t.Fatal("no required statistic has both an observation and a candidate set")
	}
	ancestors := make([]bool, n)
	var visit func(i int32)
	visit = func(i int32) {
		if ancestors[i] {
			return
		}
		ancestors[i] = true
		for c, to := u.css(i); c < to; c++ {
			for _, j := range u.in(c) {
				visit(j)
			}
		}
	}
	visit(r)

	onlyR := make([]bool, n)
	onlyR[r] = true
	observed := u.freeObservables()
	if err := newScratch(u).greedyComplete(observed, onlyR); err != nil {
		t.Fatalf("banning %v alone: %v", u.Stats[r].Key(), err)
	}
	if observed[r] || !u.Covered(observed) {
		t.Errorf("banning %v alone: observed it=%t, covered=%t", u.Stats[r].Key(), observed[r], u.Covered(observed))
	}

	err := newScratch(u).greedyComplete(u.freeObservables(), ancestors)
	if err == nil || !strings.Contains(err.Error(), "not derivable") {
		t.Errorf("banning every ancestor of %v: err = %v, want not derivable", u.Stats[r].Key(), err)
	}
}
