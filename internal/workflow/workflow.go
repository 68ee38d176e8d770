// Package workflow models ETL workflows as directed acyclic graphs of
// operators, in the style of the logical ETL model of Halasipuram,
// Deshpande and Padmanabhan (EDBT 2014).
//
// A workflow graph is built from Node values wired by input edges. Source
// nodes read base relations, intermediate nodes transform and combine
// tuples, and sink nodes materialize target record-sets. The package also
// implements the analysis of Section 3.2.1 of the paper: splitting a
// workflow into optimizable blocks across whose boundaries operators may
// not be reordered.
package workflow

import (
	"fmt"
	"sort"
	"strings"
)

// NodeKind enumerates the operator types supported in a workflow graph.
type NodeKind int

// Supported operator kinds.
const (
	// KindSource reads a base relation (a table or a flat file).
	KindSource NodeKind = iota
	// KindSelect filters tuples by a predicate on one attribute.
	KindSelect
	// KindProject keeps a subset of the input columns.
	KindProject
	// KindJoin equi-joins its two inputs on a pair of attributes.
	KindJoin
	// KindGroupBy groups tuples on a set of attributes, producing one
	// output tuple per distinct key. Group-by is blocking and therefore a
	// block boundary.
	KindGroupBy
	// KindTransform applies a (possibly user-defined) function to one
	// attribute, producing a derived attribute. Transforms preserve
	// cardinality.
	KindTransform
	// KindAggregateUDF is a custom operator that aggregates its input to a
	// smaller number of output tuples. Its semantics are opaque to the
	// optimizer, so it is treated conservatively as a block boundary.
	KindAggregateUDF
	// KindMaterialize explicitly materializes an intermediate result (for
	// diagnostics or reuse in another flow) and is a block boundary.
	KindMaterialize
	// KindSink writes the target record-set.
	KindSink
)

// String returns the lower-case operator name.
func (k NodeKind) String() string {
	switch k {
	case KindSource:
		return "source"
	case KindSelect:
		return "select"
	case KindProject:
		return "project"
	case KindJoin:
		return "join"
	case KindGroupBy:
		return "groupby"
	case KindTransform:
		return "transform"
	case KindAggregateUDF:
		return "aggudf"
	case KindMaterialize:
		return "materialize"
	case KindSink:
		return "sink"
	default:
		return fmt.Sprintf("NodeKind(%d)", int(k))
	}
}

// NodeID identifies a node within one workflow graph.
type NodeID string

// Attr names an attribute (column). Attributes are identified by the base
// relation (or derivation) that introduced them plus the column name, so
// that the same logical column can be tracked through joins and projections.
type Attr struct {
	// Rel is the name of the relation that introduced the attribute. For
	// attributes derived by a transform node, Rel is the transform's
	// output relation name.
	Rel string
	// Col is the column name within Rel.
	Col string
}

// String renders the attribute as "Rel.Col".
func (a Attr) String() string { return a.Rel + "." + a.Col }

// Less orders attributes lexicographically; it is used to canonicalize
// attribute sets.
func (a Attr) Less(b Attr) bool {
	if a.Rel != b.Rel {
		return a.Rel < b.Rel
	}
	return a.Col < b.Col
}

// SortAttrs sorts a slice of attributes into canonical order in place and
// returns it.
func SortAttrs(as []Attr) []Attr {
	sort.Slice(as, func(i, j int) bool { return as[i].Less(as[j]) })
	return as
}

// AttrsString renders a canonical comma-separated form of an attribute set.
// Lists already in canonical order — every statistic's, by construction —
// are rendered without the defensive copy and sort.
func AttrsString(as []Attr) string {
	for i := 1; i < len(as); i++ {
		if as[i].Less(as[i-1]) {
			as = SortAttrs(append([]Attr(nil), as...))
			break
		}
	}
	switch len(as) {
	case 0:
		return ""
	case 1:
		return as[0].String()
	}
	n := len(as) - 1
	for _, a := range as {
		n += len(a.Rel) + 1 + len(a.Col)
	}
	var sb strings.Builder
	sb.Grow(n)
	for i, a := range as {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(a.Rel)
		sb.WriteByte('.')
		sb.WriteString(a.Col)
	}
	return sb.String()
}

// CmpOp is a comparison operator used in selection predicates.
type CmpOp int

// Supported predicate comparison operators.
const (
	CmpEq CmpOp = iota // attribute = constant
	CmpNe              // attribute ≠ constant
	CmpLt              // attribute < constant
	CmpLe              // attribute ≤ constant
	CmpGt              // attribute > constant
	CmpGe              // attribute ≥ constant
)

// String returns the SQL-ish spelling of the operator.
func (op CmpOp) String() string {
	switch op {
	case CmpEq:
		return "="
	case CmpNe:
		return "!="
	case CmpLt:
		return "<"
	case CmpLe:
		return "<="
	case CmpGt:
		return ">"
	case CmpGe:
		return ">="
	default:
		return fmt.Sprintf("CmpOp(%d)", int(op))
	}
}

// Predicate is a single-attribute comparison against a constant, the
// selection form covered by rules S1/S2 of the paper.
type Predicate struct {
	Attr  Attr  `json:"attr"`
	Op    CmpOp `json:"op"`
	Const int64 `json:"const"`
}

// String renders the predicate as "Rel.Col op const".
func (p Predicate) String() string {
	return fmt.Sprintf("%s %s %d", p.Attr, p.Op, p.Const)
}

// Matches reports whether value v satisfies the predicate.
func (p Predicate) Matches(v int64) bool {
	switch p.Op {
	case CmpEq:
		return v == p.Const
	case CmpNe:
		return v != p.Const
	case CmpLt:
		return v < p.Const
	case CmpLe:
		return v <= p.Const
	case CmpGt:
		return v > p.Const
	case CmpGe:
		return v >= p.Const
	default:
		return false
	}
}

// JoinSpec describes an equi-join between the two inputs of a join node.
type JoinSpec struct {
	// Left and Right are the join attributes from the first and second
	// input respectively.
	Left  Attr `json:"left"`
	Right Attr `json:"right"`
	// RejectLink, when true, materializes the tuples of the first input
	// that found no join partner into a diagnostic record-set (a "reject
	// link"). A materialized reject link pins the join in place and forms
	// a block boundary.
	RejectLink bool `json:"rejectLink,omitempty"`
	// ForeignKey records designer metadata that every left tuple matches
	// exactly one right tuple (a dimension look-up). Optimizers may use it
	// to prune the plan space.
	ForeignKey bool `json:"foreignKey,omitempty"`
}

// TransformSpec describes a transform (UDF) node that computes a derived
// attribute from one or more input attributes.
type TransformSpec struct {
	// Ins are the attributes the function reads. When they span more than
	// one base relation the transform is pinned above the join of those
	// relations (Section 3.2.1 of the paper).
	Ins []Attr `json:"ins"`
	// Out is the derived attribute introduced by the transform.
	Out Attr `json:"out"`
	// Fn names the transformation function; the engine resolves it at
	// execution time. The optimizer treats it as a black box.
	Fn string `json:"fn"`
}

// Node is one operator in a workflow graph.
type Node struct {
	ID   NodeID   `json:"id"`
	Kind NodeKind `json:"kind"`
	// Inputs lists the IDs of the nodes feeding this node, in order. Join
	// nodes take exactly two inputs; sources take none; all other kinds
	// take one.
	Inputs []NodeID `json:"inputs,omitempty"`

	// Rel is the base relation name (sources) or the target record-set
	// name (sinks and materialize nodes).
	Rel string `json:"rel,omitempty"`
	// Pred is the selection predicate (select nodes only).
	Pred *Predicate `json:"pred,omitempty"`
	// Cols are the retained columns (project nodes) or grouping keys
	// (group-by nodes).
	Cols []Attr `json:"cols,omitempty"`
	// Join holds join configuration (join nodes only).
	Join *JoinSpec `json:"join,omitempty"`
	// Transform holds transform configuration (transform and aggregate-UDF
	// nodes).
	Transform *TransformSpec `json:"transform,omitempty"`
}

// Graph is an ETL workflow: a DAG of operator nodes.
type Graph struct {
	// Name labels the workflow (used in reports and serialized form).
	Name string `json:"name"`
	// Nodes holds the operators. Order is not significant; the DAG
	// structure is given by Node.Inputs.
	Nodes []*Node `json:"nodes"`
}

// Node returns the node with the given ID, or nil if absent.
func (g *Graph) Node(id NodeID) *Node {
	for _, n := range g.Nodes {
		if n.ID == id {
			return n
		}
	}
	return nil
}

// outputs returns the IDs of the nodes that consume node id, in a
// deterministic order.
func (g *Graph) outputs(id NodeID) []NodeID {
	var out []NodeID
	for _, n := range g.Nodes {
		for _, in := range n.Inputs {
			if in == id {
				out = append(out, n.ID)
				break
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Sinks returns all sink nodes.
func (g *Graph) Sinks() []*Node {
	var out []*Node
	for _, n := range g.Nodes {
		if n.Kind == KindSink {
			out = append(out, n)
		}
	}
	return out
}

// validate checks structural well-formedness: unique node IDs, input arity
// per kind, existing input references, acyclicity, and that every non-sink
// node is consumed. It returns the first problem found.
func (g *Graph) validate() error {
	if len(g.Nodes) == 0 {
		return fmt.Errorf("workflow %q: no nodes", g.Name)
	}
	byID := make(map[NodeID]*Node, len(g.Nodes))
	for _, n := range g.Nodes {
		if n.ID == "" {
			return fmt.Errorf("workflow %q: node with empty ID", g.Name)
		}
		if _, dup := byID[n.ID]; dup {
			return fmt.Errorf("workflow %q: duplicate node ID %q", g.Name, n.ID)
		}
		byID[n.ID] = n
	}
	for _, n := range g.Nodes {
		if err := validateArity(n); err != nil {
			return fmt.Errorf("workflow %q: %w", g.Name, err)
		}
		for _, in := range n.Inputs {
			if _, ok := byID[in]; !ok {
				return fmt.Errorf("workflow %q: node %q references unknown input %q", g.Name, n.ID, in)
			}
		}
	}
	if _, err := g.topoOrder(); err != nil {
		return fmt.Errorf("workflow %q: %w", g.Name, err)
	}
	consumed := make(map[NodeID]bool)
	for _, n := range g.Nodes {
		for _, in := range n.Inputs {
			consumed[in] = true
		}
	}
	for _, n := range g.Nodes {
		if n.Kind != KindSink && !consumed[n.ID] {
			return fmt.Errorf("workflow %q: non-sink node %q has no consumer", g.Name, n.ID)
		}
	}
	// Each base relation may enter the flow once: attributes are keyed by
	// their originating relation, so a self-join would make ownership
	// ambiguous throughout the analysis. Stage self-joins by materializing
	// a copy under a different name.
	srcSeen := make(map[string]NodeID)
	for _, n := range g.Nodes {
		if n.Kind != KindSource {
			continue
		}
		if prev, dup := srcSeen[n.Rel]; dup {
			return fmt.Errorf("workflow %q: relation %q read by both %q and %q; self-joins are not supported — stage a copy under another name",
				g.Name, n.Rel, prev, n.ID)
		}
		srcSeen[n.Rel] = n.ID
	}
	return nil
}

func validateArity(n *Node) error {
	want := 1
	switch n.Kind {
	case KindSource:
		want = 0
	case KindJoin:
		want = 2
	}
	if len(n.Inputs) != want {
		return fmt.Errorf("node %q (%s): want %d inputs, have %d", n.ID, n.Kind, want, len(n.Inputs))
	}
	switch n.Kind {
	case KindSource:
		if n.Rel == "" {
			return fmt.Errorf("source node %q: missing relation name", n.ID)
		}
	case KindSelect:
		if n.Pred == nil {
			return fmt.Errorf("select node %q: missing predicate", n.ID)
		}
	case KindProject:
		if len(n.Cols) == 0 {
			return fmt.Errorf("project node %q: no columns", n.ID)
		}
	case KindJoin:
		if n.Join == nil {
			return fmt.Errorf("join node %q: missing join spec", n.ID)
		}
	case KindGroupBy:
		if len(n.Cols) == 0 {
			return fmt.Errorf("group-by node %q: no grouping keys", n.ID)
		}
	case KindTransform, KindAggregateUDF:
		if n.Transform == nil {
			return fmt.Errorf("%s node %q: missing transform spec", n.Kind, n.ID)
		}
		if len(n.Transform.Ins) == 0 {
			return fmt.Errorf("%s node %q: transform has no input attributes", n.Kind, n.ID)
		}
	case KindSink, KindMaterialize:
		if n.Rel == "" {
			return fmt.Errorf("%s node %q: missing target name", n.Kind, n.ID)
		}
	}
	return nil
}

// topoOrder returns the nodes in a topological order (inputs before
// consumers) or an error if the graph has a cycle.
func (g *Graph) topoOrder() ([]*Node, error) {
	indeg := make(map[NodeID]int, len(g.Nodes))
	byID := make(map[NodeID]*Node, len(g.Nodes))
	for _, n := range g.Nodes {
		byID[n.ID] = n
		indeg[n.ID] += 0
		for range n.Inputs {
			indeg[n.ID]++
		}
	}
	var queue []NodeID
	for _, n := range g.Nodes {
		if indeg[n.ID] == 0 {
			queue = append(queue, n.ID)
		}
	}
	sort.Slice(queue, func(i, j int) bool { return queue[i] < queue[j] })
	var order []*Node
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		order = append(order, byID[id])
		next := g.outputs(id)
		for _, o := range next {
			done := true
			for _, in := range byID[o].Inputs {
				seen := false
				for _, d := range order {
					if d.ID == in {
						seen = true
						break
					}
				}
				if !seen {
					done = false
					break
				}
			}
			already := false
			for _, q := range queue {
				if q == o {
					already = true
					break
				}
			}
			for _, d := range order {
				if d.ID == o {
					already = true
					break
				}
			}
			if done && !already {
				queue = append(queue, o)
			}
		}
	}
	if len(order) != len(g.Nodes) {
		return nil, fmt.Errorf("cycle detected: ordered %d of %d nodes", len(order), len(g.Nodes))
	}
	return order, nil
}

// schema computes the output attribute set of every node by propagating
// source schemas (from the catalog) through the operators. Transform nodes
// add their derived attribute; projects and group-bys narrow the set; joins
// union the two sides.
func (g *Graph) schema(cat *Catalog) (map[NodeID][]Attr, error) {
	order, err := g.topoOrder()
	if err != nil {
		return nil, err
	}
	out := make(map[NodeID][]Attr, len(order))
	for _, n := range order {
		switch n.Kind {
		case KindSource:
			rel := cat.Relation(n.Rel)
			if rel == nil {
				return nil, fmt.Errorf("node %q: relation %q not in catalog", n.ID, n.Rel)
			}
			attrs := make([]Attr, 0, len(rel.Columns))
			for _, c := range rel.Columns {
				attrs = append(attrs, Attr{Rel: rel.Name, Col: c.Name})
			}
			out[n.ID] = SortAttrs(attrs)
		case KindJoin:
			left, right := out[n.Inputs[0]], out[n.Inputs[1]]
			if !attrIn(left, n.Join.Left) {
				return nil, fmt.Errorf("join %q: left attr %s not in left input schema", n.ID, n.Join.Left)
			}
			if !attrIn(right, n.Join.Right) {
				return nil, fmt.Errorf("join %q: right attr %s not in right input schema", n.ID, n.Join.Right)
			}
			merged := append(append([]Attr(nil), left...), right...)
			out[n.ID] = SortAttrs(dedupAttrs(merged))
		case KindSelect:
			in := out[n.Inputs[0]]
			if !attrIn(in, n.Pred.Attr) {
				return nil, fmt.Errorf("select %q: attr %s not in input schema", n.ID, n.Pred.Attr)
			}
			out[n.ID] = in
		case KindProject, KindGroupBy:
			in := out[n.Inputs[0]]
			for _, c := range n.Cols {
				if !attrIn(in, c) {
					return nil, fmt.Errorf("%s %q: attr %s not in input schema", n.Kind, n.ID, c)
				}
			}
			out[n.ID] = SortAttrs(append([]Attr(nil), n.Cols...))
		case KindTransform, KindAggregateUDF:
			in := out[n.Inputs[0]]
			for _, a := range n.Transform.Ins {
				if !attrIn(in, a) {
					return nil, fmt.Errorf("%s %q: attr %s not in input schema", n.Kind, n.ID, a)
				}
			}
			out[n.ID] = SortAttrs(dedupAttrs(append(append([]Attr(nil), in...), n.Transform.Out)))
		case KindSink, KindMaterialize:
			out[n.ID] = out[n.Inputs[0]]
		default:
			return nil, fmt.Errorf("node %q: unknown kind %v", n.ID, n.Kind)
		}
	}
	return out, nil
}

func attrIn(as []Attr, a Attr) bool {
	for _, x := range as {
		if x == a {
			return true
		}
	}
	return false
}

func dedupAttrs(as []Attr) []Attr {
	seen := make(map[Attr]bool, len(as))
	out := as[:0]
	for _, a := range as {
		if !seen[a] {
			seen[a] = true
			out = append(out, a)
		}
	}
	return out
}
