// Package suite defines the 30-workflow benchmark used by the paper's
// evaluation (Section 7): a representative set of ETL workflows motivated
// by a draft of the TPC-DI benchmark, ranging from simple linear flows with
// a single execution plan to complex workflows with 8-way joins, multiple
// transformations, reject links and aggregation boundaries. Workflows are
// fully deterministic (construction and synthetic data), so every
// experiment in the repository reproduces bit-identical results.
//
// Several workflows mirror anecdotes from the paper:
//
//	wf03 — union–division reduces the memory optimum dramatically
//	       (the paper reports 1,811,197 → 29,922 units);
//	wf16 — the optimum costs on the order of 70,000 units;
//	wf21 — the most complex flow: an 8-input join with transformations
//	       (trivial-CSS lower bound 41 executions);
//	wf23 — union–division CSSs exist but lose and are not chosen
//	       (the paper reports 3,444 vs 6,951 units);
//	wf30 — a 6-input join (trivial-CSS lower bound 14 executions).
package suite

import (
	"fmt"
	"math/rand"

	"github.com/essential-stats/etlopt/internal/data"
	"github.com/essential-stats/etlopt/internal/engine"
	"github.com/essential-stats/etlopt/internal/workflow"
)

// Workflow is one suite entry: the graph, its catalog, and the data
// generation specs for its source relations.
type Workflow struct {
	// ID is the 1-based workflow number (matches figure x-axes).
	ID int
	// Name is "wf01".."wf30".
	Name string
	// Note describes the workflow's shape and which paper anecdote it
	// mirrors, if any.
	Note string
	// Graph is the workflow DAG.
	Graph *workflow.Graph
	// Catalog carries relation cardinalities and attribute domains.
	Catalog *workflow.Catalog
	// Specs generate the source relations.
	Specs []data.TableSpec
	// Seed drives the data generation.
	Seed int64
}

// Data materializes the workflow's source relations at the given scale
// (1.0 = the catalog cardinalities; smaller scales shrink cardinalities
// proportionally with a floor of 32 rows, for quick executions).
func (w *Workflow) Data(scale float64) engine.DB {
	db := engine.DB{}
	for i, spec := range w.Specs {
		s := spec
		if scale != 1.0 {
			s.Card = int64(float64(s.Card) * scale)
			if s.Card < 32 {
				s.Card = 32
			}
		}
		db[s.Rel] = data.Generate(s, w.Seed+int64(i)*101)
	}
	return db
}

// All returns the 30 workflows in order.
func All() []*Workflow {
	out := make([]*Workflow, 0, 30)
	for id := 1; id <= 30; id++ {
		out = append(out, MustGet(id))
	}
	return out
}

// MinID and MaxID bound the valid workflow ids.
const (
	MinID = 1
	MaxID = 30
)

// UnknownWorkflowError reports a workflow id outside the suite.
type UnknownWorkflowError struct {
	// ID is the requested id.
	ID int
}

func (e *UnknownWorkflowError) Error() string {
	return fmt.Sprintf("suite: no workflow %d (valid ids %d..%d)", e.ID, MinID, MaxID)
}

// Get builds workflow id (1..30); an id outside the suite returns an
// *UnknownWorkflowError.
func Get(id int) (*Workflow, error) {
	b, ok := builders[id-1]
	if !ok {
		return nil, &UnknownWorkflowError{ID: id}
	}
	w := b(id)
	w.ID = id
	w.Name = fmt.Sprintf("wf%02d", id)
	w.Seed = int64(id) * 7919
	return w, nil
}

// MustGet is Get for callers with statically valid ids (tests, benchmarks,
// the experiment loops); it panics on an unknown id.
func MustGet(id int) *Workflow {
	w, err := Get(id)
	if err != nil {
		panic(err)
	}
	return w
}

var builders = map[int]func(id int) *Workflow{}

func register(id int, f func(id int) *Workflow) bool {
	builders[id-1] = f
	return true
}

// sizer draws cardinalities and domain sizes in the paper's ranges
// (cardinalities 3,342–417,874; unique values 102–417,874), deterministic
// per workflow.
type sizer struct{ rng *rand.Rand }

func newSizer(id int) *sizer { return &sizer{rng: rand.New(rand.NewSource(int64(id) * 104729))} }

// card draws a relation cardinality, skewed toward the lower end like the
// paper's median (52,234 vs mean 104,466).
func (s *sizer) card() int64 {
	base := 3342 + s.rng.Int63n(50000)
	if s.rng.Intn(3) == 0 { // occasionally large
		base += s.rng.Int63n(360000)
	}
	return base
}

// dom draws an attribute domain in [102, hi].
func (s *sizer) dom(hi int64) int64 {
	if hi <= 102 {
		return 102
	}
	return 102 + s.rng.Int63n(hi-102)
}

// wfBuilder accumulates relations, a graph and data specs.
type wfBuilder struct {
	id    int
	sz    *sizer
	b     *workflow.Builder
	cat   *workflow.Catalog
	specs []data.TableSpec
	// last holds the most recently produced dataflow node.
	last workflow.NodeID
}

func newWF(id int, name string) *wfBuilder {
	return &wfBuilder{
		id:  id,
		sz:  newSizer(id),
		b:   workflow.NewBuilder(name),
		cat: &workflow.Catalog{},
	}
}

// relation registers a relation with the given join-key columns (name →
// domain) plus a serial id column and one payload column, and returns its
// source node.
func (w *wfBuilder) relation(name string, card int64, keys map[string]int64) workflow.NodeID {
	spec := data.TableSpec{Rel: name, Card: card}
	rel := &workflow.Relation{Name: name, Card: card}
	spec.Columns = append(spec.Columns, data.ColumnSpec{Name: "id", Serial: true})
	rel.Columns = append(rel.Columns, workflow.Column{Name: "id", Domain: card})
	// Deterministic key order.
	names := make([]string, 0, len(keys))
	for k := range keys {
		names = append(names, k)
	}
	for i := 1; i < len(names); i++ {
		for j := i; j > 0 && names[j] < names[j-1]; j-- {
			names[j], names[j-1] = names[j-1], names[j]
		}
	}
	for _, k := range names {
		d := keys[k]
		// Join keys get mild skew: heavy skew on both sides of an
		// equi-join multiplies cardinalities at every join and the chain
		// blows up.
		spec.Columns = append(spec.Columns, data.ColumnSpec{Name: k, Domain: d, Skew: 1.05 + float64(w.sz.rng.Intn(4))/20})
		rel.Columns = append(rel.Columns, workflow.Column{Name: k, Domain: d})
	}
	// The payload column carries the paper's "high skew": its unique-value
	// counts fall far below the cardinalities, like the Section 7 table.
	payloadDom := w.sz.dom(1000)
	spec.Columns = append(spec.Columns, data.ColumnSpec{Name: "val", Domain: payloadDom, Skew: 1.9})
	rel.Columns = append(rel.Columns, workflow.Column{Name: "val", Domain: payloadDom})
	w.cat.Relations = append(w.cat.Relations, rel)
	w.specs = append(w.specs, spec)
	return w.b.Source(name)
}

func (w *wfBuilder) attr(rel, col string) workflow.Attr { return workflow.Attr{Rel: rel, Col: col} }

// lookupRelation registers a dimension for a foreign-key look-up join: its
// key column enumerates the domain exactly once (serial 1..domain), so
// every fact row matches exactly one dimension row and the FK metadata rule
// holds on the generated data too.
func (w *wfBuilder) lookupRelation(name string, domain int64, key string) workflow.NodeID {
	spec := data.TableSpec{Rel: name, Card: domain}
	rel := &workflow.Relation{Name: name, Card: domain}
	spec.Columns = append(spec.Columns, data.ColumnSpec{Name: key, Serial: true})
	rel.Columns = append(rel.Columns, workflow.Column{Name: key, Domain: domain})
	payloadDom := w.sz.dom(1000)
	spec.Columns = append(spec.Columns, data.ColumnSpec{Name: "val", Domain: payloadDom})
	rel.Columns = append(rel.Columns, workflow.Column{Name: "val", Domain: payloadDom})
	w.cat.Relations = append(w.cat.Relations, rel)
	w.specs = append(w.specs, spec)
	return w.b.Source(name)
}

// done wires the last node to a sink and packages the workflow.
func (w *wfBuilder) done(note string) *Workflow {
	w.b.Sink(w.last, "warehouse")
	return &Workflow{Note: note, Graph: w.b.Graph(), Catalog: w.cat, Specs: w.specs}
}
