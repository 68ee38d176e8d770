// Package physical lowers analyzed workflow blocks into a typed physical
// operator DAG — the one intermediate representation every execution of a
// workflow interprets. The compiler resolves everything that can be decided
// before the first row flows: operator schemas, column positions, UDF
// implementations, hash-join sides and probe/build columns, reject-link
// routing, and — centrally — the *tap attachment points*: which selected
// statistics observe which operator outputs, with their physical columns
// already bound (the paper's Section 3.2.5 instrumentation, made
// declarative).
//
// The engine interprets the DAG batch-at-a-time and the tests' reference
// evaluator (internal/wftest) walks it row by row; both read the same
// nodes, so operator semantics, observer wiring and reject routing live in
// exactly one place.
package physical

import (
	"github.com/essential-stats/etlopt/internal/data"
	"github.com/essential-stats/etlopt/internal/expr"
	"github.com/essential-stats/etlopt/internal/stats"
	"github.com/essential-stats/etlopt/internal/workflow"
)

// DB maps base relation names to materialized tables.
type DB map[string]*data.Table

// UDF is a scalar transformation function applied per tuple.
type UDF func(vals []int64) int64

// Registry resolves transform function names to implementations.
type Registry map[string]UDF

// DefaultRegistry returns the built-in UDFs used by the examples and the
// benchmark suite.
func DefaultRegistry() Registry {
	return Registry{
		// identity passes the first input through.
		"identity": func(v []int64) int64 { return v[0] },
		// bucket10 maps values into ten buckets.
		"bucket10": func(v []int64) int64 { return v[0]%10 + 1 },
		// sum adds all inputs.
		"sum": func(v []int64) int64 {
			var t int64
			for _, x := range v {
				t += x
			}
			return t
		},
		// scramble is a cheap value scrambler standing in for opaque
		// cleansing code.
		"scramble": func(v []int64) int64 { return (v[0]*2654435761 + 17) % 100003 },
	}
}

// OpKind enumerates the physical operators.
type OpKind int

// Physical operator kinds.
const (
	// OpScan reads a base relation or an upstream block's boundary output.
	OpScan OpKind = iota
	// OpFilter drops rows failing a single-attribute predicate.
	OpFilter
	// OpProject keeps a column subset.
	OpProject
	// OpTransform appends one derived column computed by a UDF.
	OpTransform
	// OpGroupBy emits one row per distinct key combination.
	OpGroupBy
	// OpAggregateUDF emits one row per distinct input combination plus the
	// aggregate value (the opaque custom aggregate of the paper).
	OpAggregateUDF
	// OpHashJoin equi-joins two nodes, exposing each side's non-matching
	// rows for reject statistics and reject links.
	OpHashJoin
	// OpMaterialize records its input under a target name; it produces no
	// new rows and does not count toward the work metric.
	OpMaterialize
)

// String names the operator kind.
func (k OpKind) String() string {
	switch k {
	case OpScan:
		return "scan"
	case OpFilter:
		return "filter"
	case OpProject:
		return "project"
	case OpTransform:
		return "transform"
	case OpGroupBy:
		return "groupby"
	case OpAggregateUDF:
		return "aggudf"
	case OpHashJoin:
		return "hashjoin"
	case OpMaterialize:
		return "materialize"
	default:
		return "op?"
	}
}

// Tap is one statistic collector attached to a node's output. For Distinct
// and Hist statistics Cols holds the physical column positions of the
// statistic's (class-representative) attributes, resolved at compile time;
// Card taps need no columns.
type Tap struct {
	Stat stats.Stat
	Cols []int
}

// AuxJoin is a compiled union–division counter (rule J4): a two-input
// reject statistic T̄t ⋈ r observed by joining the miss rows of input t with
// partner input r after the block's pipeline drains.
type AuxJoin struct {
	Stat stats.Stat
	// Partner is the block-input index joined against the misses.
	Partner int
	// MissCol / PartnerCol are the equi-join columns on the miss rows and
	// the partner's cooked input.
	MissCol, PartnerCol int
	// Attrs is the schema of the auxiliary join output (miss ++ partner).
	Attrs []workflow.Attr
	// Cols are Stat's resolved columns within Attrs (nil for Card).
	Cols []int
}

// RejectTaps is the reject instrumentation of one side of a hash join whose
// side is a bare input: Singles observe the miss rows directly, Aux are the
// deferred auxiliary joins for two-input reject variants.
type RejectTaps struct {
	// Input is the block-input index whose misses are observed; Edge is the
	// join edge (Block.Joins index) defining the rejects.
	Input, Edge int
	Singles     []Tap
	Aux         []*AuxJoin
}

// Node is one physical operator. Exactly the fields of its Kind are set;
// the rest keep zero values (-1 for the index fields).
type Node struct {
	// ID is the node's position in BlockPlan.Nodes (topological execution
	// order).
	ID   int
	Kind OpKind
	// Label is a deterministic human-readable rendering of the operator.
	Label string
	// Origin is the workflow graph node this operator was lowered from
	// ("" for scans).
	Origin workflow.NodeID
	// Attrs is the node's output schema.
	Attrs []workflow.Attr

	// Input is the upstream node of unary operators.
	Input *Node

	// Scan: exactly one of Src (a base relation, resolved at compile time)
	// or FromBlock (an upstream block's boundary output, resolved when the
	// block runs) is set. SourceRel names the base relation for display.
	Src       *data.Table
	SourceRel string
	FromBlock int

	// ChainInput/ChainDepth place chain nodes: the node produces chain
	// point (block, ChainInput, ChainDepth). ChainInput is -1 for join and
	// top-operator nodes.
	ChainInput int
	ChainDepth int

	// Filter.
	Pred    *workflow.Predicate
	PredCol int

	// Project and GroupBy key columns.
	Cols []int

	// Transform / AggregateUDF: the resolved function and its input
	// columns.
	Fn     UDF
	FnName string
	FnIns  []int

	// HashJoin. Left streams/probes, Right is the build side. LeftCol and
	// RightCol are the join columns on the sides as executed (the compiler
	// normalizes the edge's attribute pair onto the sides). SE is the
	// sub-expression the node produces (also set on chain-end nodes).
	Left, Right       *Node
	Edge              int
	LeftCol, RightCol int
	SE                expr.Set
	// LeftReject/RightReject carry reject instrumentation when the
	// respective side is a bare input with registered reject statistics.
	LeftReject, RightReject *RejectTaps
	// RejectLink, when non-empty, materializes the left side's misses
	// under this name (a designed reject link).
	RejectLink string

	// Materialize target name.
	Rel string

	// Taps are the statistic collectors on this node's output.
	Taps []Tap

	// Metrics holds the node's runtime counters after an instrumented
	// run; the engine leaves it zero unless metrics collection is on.
	Metrics Metrics
}

// BlockPlan is the compiled physical plan of one optimizable block.
type BlockPlan struct {
	Block *workflow.Block
	// Tree is the join tree as executed (the initial tree or the
	// optimizer's override); nil for join-free blocks.
	Tree *workflow.JoinTree
	// Nodes is the topological execution order: every input chain in input
	// order, then joins bottom-up, then top operators.
	Nodes []*Node
	// Chains holds each input's nodes: Chains[i][d] produces chain point
	// depth d of input i (Chains[i][0] is the scan).
	Chains [][]*Node
	// Root is the block's final node; its output crosses the boundary.
	Root *Node
}

// Plan is the compiled physical plan of a whole workflow, one BlockPlan per
// optimizable block in topological order.
type Plan struct {
	An     *workflow.Analysis
	Blocks []*BlockPlan
}
