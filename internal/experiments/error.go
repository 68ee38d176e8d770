package experiments

import (
	"fmt"
	"time"

	"github.com/essential-stats/etlopt/internal/core"
	"github.com/essential-stats/etlopt/internal/css"
	"github.com/essential-stats/etlopt/internal/data"
	"github.com/essential-stats/etlopt/internal/selector"
	"github.com/essential-stats/etlopt/internal/stats"
	"github.com/essential-stats/etlopt/internal/suite"
	"github.com/essential-stats/etlopt/internal/workflow"
)

// errorRow is one point on the estimation-error vs histogram-memory curve
// of the Section 8 extension: join cardinalities estimated from bucketized
// histograms at a given resolution.
//
// Buckets is the per-histogram bucket count (0 = exact per-value). Memory
// counts the counters of every summary; the errors are |est−truth|/truth
// over the Joins edges measured.
type errorRow struct {
	Buckets, Joins        int
	Memory                int64
	MeanRelErr, MaxRelErr float64
}

// errorSweep measures join-cardinality estimation error of equi-width
// bucketized histograms against exact truth, over the join edges of the
// given suite workflows at the given data scale. It realizes the
// space–error trade-off the paper sketches in Sections 8.1/8.2.
func errorSweep(ids []int, scale float64, bucketCounts []int) ([]*errorRow, error) {
	var cases []*edgeCase
	for _, id := range ids {
		w := suite.MustGet(id)
		an, err := core.NewPlan(w.Graph, w.Catalog, css.DefaultOptions()).Analysis()
		if err != nil {
			return nil, err
		}
		db := w.Data(scale)
		for _, blk := range an.Blocks {
			for _, e := range blk.Joins {
				if c := newEdgeCase(db, blk, e); c != nil {
					cases = append(cases, c)
				}
			}
		}
	}
	if len(cases) == 0 {
		return nil, fmt.Errorf("experiments: no measurable join edges")
	}
	var out []*errorRow
	for _, n := range bucketCounts {
		row := &errorRow{Buckets: n, Joins: len(cases)}
		var sum float64
		for _, c := range cases {
			est, mem, err := c.estimate(n)
			if err != nil {
				return nil, err
			}
			relErr := relativeError(est, c.truth)
			sum += relErr
			row.MaxRelErr = max(row.MaxRelErr, relErr)
			row.Memory += mem
		}
		row.MeanRelErr = sum / float64(len(cases))
		out = append(out, row)
	}
	return out, nil
}

// edgeCase is one join edge between two base relations: both join
// columns' exact distributions, their common value range, and the exact
// join cardinality.
type edgeCase struct {
	h1, h2 *stats.Histogram
	lo, hi int64
	truth  int64
}

// newEdgeCase observes the two join-column distributions of one edge
// directly over the (raw) input tables and computes the exact join
// cardinality. Inputs fed by upstream blocks give nil — the sweep only
// needs a population of realistic base-relation joins.
func newEdgeCase(db map[string]*data.Table, blk *workflow.Block, e workflow.BlockJoin) *edgeCase {
	lt := baseTable(db, blk, e.LeftInput)
	rt := baseTable(db, blk, e.RightInput)
	if lt == nil || rt == nil || lt.Col(e.LeftAttr) < 0 || rt.Col(e.RightAttr) < 0 {
		return nil
	}
	lc, rc := lt.Col(e.LeftAttr), rt.Col(e.RightAttr)
	// Both histograms carry the same label: the algebra joins by position.
	c := &edgeCase{h1: stats.NewHistogram(e.LeftAttr), h2: stats.NewHistogram(e.LeftAttr), lo: 1, hi: 1}
	for i, r := range lt.Rows {
		if i == 0 {
			c.lo, c.hi = r[lc], r[lc]
		}
		c.h1.Add(r[lc])
		c.lo, c.hi = min(c.lo, r[lc]), max(c.hi, r[lc])
	}
	counts := make(map[int64]int64)
	for _, r := range rt.Rows {
		c.h2.Add(r[rc])
		counts[r[rc]]++
		c.lo, c.hi = min(c.lo, r[rc]), max(c.hi, r[rc])
	}
	for _, r := range lt.Rows {
		c.truth += counts[r[lc]]
	}
	return c
}

// estimate derives the edge's join cardinality from summaries of its two
// columns — exact per-value histograms when n is 0, n equi-width buckets
// otherwise — and returns the summaries' memory with it.
func (c *edgeCase) estimate(n int) (est float64, mem int64, err error) {
	if n == 0 {
		v, err := stats.DotProduct(c.h1, c.h2)
		return float64(v), int64(c.h1.Buckets() + c.h2.Buckets()), err
	}
	spec := newBucketSpec(c.lo, c.hi, n)
	a1, err := bucketize(c.h1, spec)
	if err != nil {
		return 0, 0, err
	}
	a2, err := bucketize(c.h2, spec)
	if err != nil {
		return 0, 0, err
	}
	est, err = approxDotProduct(a1, a2)
	return est, a1.memory() + a2.memory(), err
}

func baseTable(db map[string]*data.Table, blk *workflow.Block, input int) *data.Table {
	in := blk.Inputs[input]
	if in.SourceRel == "" {
		return nil
	}
	return db[in.SourceRel]
}

// scaleRow measures statistics-identification cost as join width grows.
// Shape is "chain" or "fk-star" and N its join width; Stats and CSS size
// the generated universe, Gen and Select time the two phases, and Mem is
// the optimum's memory, Optimal whether the solver proved it.
type scaleRow struct {
	Shape         string
	N, Stats, CSS int
	Gen, Select   time.Duration
	Mem           int64
	Optimal       bool
}

// scaleSweep generates chains and FK stars of growing width and measures
// the identification pipeline on each — the scalability dimension behind
// Figure 10's per-workflow times.
func scaleSweep(maxN int) ([]*scaleRow, error) {
	var out []*scaleRow
	for n := 3; n <= maxN; n++ {
		for _, shape := range []string{"chain", "fk-star"} {
			g, cat := scaleWorkflow(shape, n)
			p := core.NewPlan(g, cat, css.DefaultOptions())
			sel, err := p.Selection(selector.MethodExact)
			if err != nil {
				return nil, fmt.Errorf("%s-%d: %w", shape, n, err)
			}
			res, _ := p.CSS() // computed by the selection
			t := p.Timings(selector.MethodExact)
			out = append(out, &scaleRow{
				N: n, Shape: shape,
				Stats: len(res.Stats), CSS: res.NumCSS(),
				Gen: t.GenerateCSS, Select: t.Select,
				Mem: sel.Memory, Optimal: sel.Optimal,
			})
		}
	}
	return out, nil
}

// scaleWorkflow builds a width-n chain or FK star with fixed domains.
func scaleWorkflow(shape string, n int) (*workflow.Graph, *workflow.Catalog) {
	cat := &workflow.Catalog{}
	b := workflow.NewBuilder(fmt.Sprintf("%s-%d", shape, n))
	switch shape {
	case "chain":
		var cur workflow.NodeID
		for i := 0; i < n; i++ {
			rel := fmt.Sprintf("R%d", i)
			r := &workflow.Relation{Name: rel, Card: 50000}
			if i > 0 {
				r.Columns = append(r.Columns, workflow.Column{Name: "p", Domain: 300})
			}
			if i < n-1 {
				r.Columns = append(r.Columns, workflow.Column{Name: "n", Domain: 300})
			}
			cat.Relations = append(cat.Relations, r)
			src := b.Source(rel)
			if i == 0 {
				cur = src
				continue
			}
			cur = b.Join(cur, src,
				workflow.Attr{Rel: fmt.Sprintf("R%d", i-1), Col: "n"},
				workflow.Attr{Rel: rel, Col: "p"})
		}
		b.Sink(cur, "dw")
	default: // fk-star
		fact := &workflow.Relation{Name: "F", Card: 200000}
		for i := 1; i < n; i++ {
			fact.Columns = append(fact.Columns, workflow.Column{Name: fmt.Sprintf("k%d", i), Domain: 500})
		}
		cat.Relations = append(cat.Relations, fact)
		cur := b.Source("F")
		for i := 1; i < n; i++ {
			rel := fmt.Sprintf("D%d", i)
			cat.Relations = append(cat.Relations, &workflow.Relation{Name: rel, Card: 500,
				Columns: []workflow.Column{{Name: "k", Domain: 500}}})
			d := b.Source(rel)
			cur = b.FKJoin(cur, d, workflow.Attr{Rel: "F", Col: fmt.Sprintf("k%d", i)}, workflow.Attr{Rel: rel, Col: "k"})
		}
		b.Sink(cur, "dw")
	}
	return b.Graph(), cat
}
