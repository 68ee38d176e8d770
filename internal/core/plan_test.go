package core

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/essential-stats/etlopt/internal/css"
	"github.com/essential-stats/etlopt/internal/selector"
	"github.com/essential-stats/etlopt/internal/suite"
	"github.com/essential-stats/etlopt/internal/workflow"
)

// TestStageBuildsOnce holds the mechanism every Plan stage is: concurrent
// first callers run the build once and share its value, and a failed build
// is the stage's answer from then on.
func TestStageBuildsOnce(t *testing.T) {
	var s stage[*int]
	var builds atomic.Int64
	const n = 16
	got := make([]*int, n)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			got[i], _ = s.get(func() (*int, error) {
				builds.Add(1)
				return new(int), nil
			})
		}()
	}
	close(start)
	wg.Wait()
	if b := builds.Load(); b != 1 {
		t.Fatalf("%d builds, want 1", b)
	}
	for i, p := range got {
		if p == nil || p != got[0] {
			t.Fatalf("caller %d got %p, caller 0 %p", i, p, got[0])
		}
	}

	var failing stage[*int]
	errBuild := errors.New("no")
	if _, err := failing.get(func() (*int, error) { return nil, errBuild }); err != errBuild {
		t.Fatalf("first build: %v", err)
	}
	if _, err := failing.get(func() (*int, error) { t.Fatal("a failed stage built again"); return nil, nil }); err != errBuild {
		t.Fatalf("second call: %v, want the cached error", err)
	}
}

// TestPlanSharedAcrossGoroutines asks one Plan for every stage from many
// goroutines at once, in different orders: every caller gets the same
// analysis, CSS result, universe and per-method selections, and asking
// again afterwards runs nothing (the recorded stage times stay put).
func TestPlanSharedAcrossGoroutines(t *testing.T) {
	w := suite.MustGet(12)
	p := NewPlan(w.Graph, w.Catalog, css.DefaultOptions())

	type stages struct {
		an            *workflow.Analysis
		res           *css.Result
		u             *selector.Universe
		exact, greedy *selector.Selection
	}
	ask := func(reverse bool) (st stages, err error) {
		steps := []func() error{
			func() (err error) { st.an, err = p.Analysis(); return },
			func() (err error) { st.res, err = p.CSS(); return },
			func() (err error) { st.u, err = p.Universe(); return },
			func() (err error) { st.exact, err = p.Selection(selector.MethodExact); return },
			func() (err error) { st.greedy, err = p.Selection(selector.MethodGreedy); return },
		}
		for i := range steps {
			if reverse {
				i = len(steps) - 1 - i
			}
			if err := steps[i](); err != nil {
				return st, err
			}
		}
		return st, nil
	}

	const n = 8
	got := make([]stages, n)
	errs := make([]error, n)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			got[i], errs[i] = ask(i%2 == 1)
		}()
	}
	close(start)
	wg.Wait()
	for i, st := range got {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if st != got[0] {
			t.Fatalf("caller %d got stages %+v, caller 0 %+v", i, st, got[0])
		}
	}
	st := got[0]
	if st.res.Analysis != st.an || st.u.Res != st.res || st.exact == st.greedy {
		t.Fatal("the stages do not chain: CSS over the analysis, universe over the CSS, one selection per method")
	}

	before := [2]Timings{p.Timings(selector.MethodExact), p.Timings(selector.MethodGreedy)}
	if before[0].Analyze <= 0 || before[0].GenerateCSS <= 0 || before[0].Select <= 0 || before[1].Select <= 0 {
		t.Fatalf("stage times not recorded: %+v", before)
	}
	if again, err := ask(false); err != nil || again != st {
		t.Fatalf("asking again: %+v, %v", again, err)
	}
	if after := [2]Timings{p.Timings(selector.MethodExact), p.Timings(selector.MethodGreedy)}; after != before {
		t.Fatalf("asking again re-ran a stage: times %+v, were %+v", after, before)
	}
}

// TestPlanErrorIsCached: a document that fails analysis fails every stage
// with that one error, and the Plan does not try again.
func TestPlanErrorIsCached(t *testing.T) {
	b := workflow.NewBuilder("missing")
	b.Sink(b.Source("Nowhere"), "dw")
	p := NewPlan(b.Graph(), &workflow.Catalog{}, css.DefaultOptions())
	_, err := p.Analysis()
	if err == nil {
		t.Fatal("a source with no catalog relation analyzed")
	}
	took := p.Timings(selector.MethodExact).Analyze
	if _, err2 := p.Selection(selector.MethodExact); err2 != err {
		t.Fatalf("selection error %v, want the analysis error %v", err2, err)
	}
	if p.Timings(selector.MethodExact).Analyze != took {
		t.Fatal("the failed analysis ran again")
	}
}
