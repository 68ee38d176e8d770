package workflow

import "fmt"

// Builder constructs workflow graphs fluently. Node IDs are generated
// automatically ("n1", "n2", ...). Each method returns the new node's ID so
// it can be wired into later operators.
//
//	b := workflow.NewBuilder("retail")
//	o := b.Source("Orders")
//	p := b.Source("Product")
//	j := b.Join(o, p, workflow.Attr{"Orders", "pid"}, workflow.Attr{"Product", "pid"})
//	b.Sink(j, "warehouse")
//	g := b.Graph()
type Builder struct {
	g    *Graph
	next int
}

// NewBuilder returns a builder for a workflow with the given name.
func NewBuilder(name string) *Builder {
	return &Builder{g: &Graph{Name: name}}
}

func (b *Builder) add(n *Node) NodeID {
	b.next++
	if n.ID == "" {
		n.ID = NodeID(fmt.Sprintf("n%d", b.next))
	}
	b.g.Nodes = append(b.g.Nodes, n)
	return n.ID
}

// Source adds a source node reading relation rel.
func (b *Builder) Source(rel string) NodeID {
	return b.add(&Node{Kind: KindSource, Rel: rel})
}

// Select adds a selection with the given predicate over input in.
func (b *Builder) Select(in NodeID, p Predicate) NodeID {
	return b.add(&Node{Kind: KindSelect, Inputs: []NodeID{in}, Pred: &p})
}

// Project adds a projection keeping cols over input in.
func (b *Builder) Project(in NodeID, cols ...Attr) NodeID {
	return b.add(&Node{Kind: KindProject, Inputs: []NodeID{in}, Cols: cols})
}

// Join adds an equi-join of left and right on la = ra.
func (b *Builder) Join(left, right NodeID, la, ra Attr) NodeID {
	return b.add(&Node{Kind: KindJoin, Inputs: []NodeID{left, right}, Join: &JoinSpec{Left: la, Right: ra}})
}

// FKJoin adds a foreign-key (look-up) join of left and right on la = ra.
func (b *Builder) FKJoin(left, right NodeID, la, ra Attr) NodeID {
	return b.add(&Node{Kind: KindJoin, Inputs: []NodeID{left, right}, Join: &JoinSpec{Left: la, Right: ra, ForeignKey: true}})
}

// RejectJoin adds an equi-join whose left-side non-matching tuples are
// materialized on a reject link.
func (b *Builder) RejectJoin(left, right NodeID, la, ra Attr) NodeID {
	return b.add(&Node{Kind: KindJoin, Inputs: []NodeID{left, right}, Join: &JoinSpec{Left: la, Right: ra, RejectLink: true}})
}

// GroupBy adds a group-by on keys over input in.
func (b *Builder) GroupBy(in NodeID, keys ...Attr) NodeID {
	return b.add(&Node{Kind: KindGroupBy, Inputs: []NodeID{in}, Cols: keys})
}

// Transform adds a transform node computing out = fn(ins...).
func (b *Builder) Transform(in NodeID, fn string, out Attr, ins ...Attr) NodeID {
	return b.add(&Node{Kind: KindTransform, Inputs: []NodeID{in}, Transform: &TransformSpec{Ins: ins, Out: out, Fn: fn}})
}

// AggregateUDF adds a blocking custom aggregate computing out = fn(ins...).
func (b *Builder) AggregateUDF(in NodeID, fn string, out Attr, ins ...Attr) NodeID {
	return b.add(&Node{Kind: KindAggregateUDF, Inputs: []NodeID{in}, Transform: &TransformSpec{Ins: ins, Out: out, Fn: fn}})
}

// Materialize adds an explicit materialization of the input into target.
func (b *Builder) Materialize(in NodeID, target string) NodeID {
	return b.add(&Node{Kind: KindMaterialize, Inputs: []NodeID{in}, Rel: target})
}

// Sink adds a target record-set node writing to target.
func (b *Builder) Sink(in NodeID, target string) NodeID {
	return b.add(&Node{Kind: KindSink, Inputs: []NodeID{in}, Rel: target})
}

// Graph returns the constructed workflow.
func (b *Builder) Graph() *Graph { return b.g }
