package physical

import (
	"github.com/essential-stats/etlopt/internal/expr"
	"github.com/essential-stats/etlopt/internal/stats"
)

// Metrics holds one operator's runtime counters, populated by the engine
// when metrics collection is enabled (it stays zero otherwise). The
// counters split the paper's Section 5.4 observation-cost question into
// measurable parts: WallNanos is the time spent producing the node's rows,
// TapNanos is — timed separately — the overhead of the statistic taps
// attached to the node (tap collection, reject collection and the
// auxiliary union–division joins).
//
// Semantics:
//
//   - RowsOut and the derived RowsIn are deterministic: every run, at any
//     worker count and wherever its blocks were placed, reports identical
//     values (the equivalence suite pins them against the reference
//     evaluator).
//   - Calls counts operator invocations (1 per evaluation), excluded from
//     the deterministic report.
//   - WallNanos and TapNanos are per operator and exclusive (inputs are
//     already materialized when an operator runs). Wall times are
//     wall-clock and therefore never part of deterministic output.
//   - A join's output columns are late (index vectors over its inputs,
//     gathered on first read), so a tap that reads a late column pays its
//     gather inside TapNanos, and the operator that first reads it (a
//     filter's predicate column, the next join's key) inside WallNanos.
//
// The JSON form is the metrics shard a distributed worker ships back with
// its block (internal/serve's response-frame header).
type Metrics struct {
	// RowsOut counts rows the operator emitted.
	RowsOut int64 `json:"rows"`
	// Calls counts operator invocations.
	Calls int64 `json:"calls,omitempty"`
	// WallNanos is time spent producing the node's rows, excluding
	// TapNanos.
	WallNanos int64 `json:"wall_ns,omitempty"`
	// TapNanos is the statistic-tap observation overhead at this node.
	TapNanos int64 `json:"tap_ns,omitempty"`
}

// NodeMetrics is one node's metrics snapshot, carrying enough identity to
// render a report without the plan. Timing fields are excluded from JSON:
// the JSON form is the deterministic report, and wall times differ run to
// run (they remain available programmatically).
type NodeMetrics struct {
	Block int    `json:"block"`
	Node  int    `json:"node"`
	Op    string `json:"op"`
	Label string `json:"label"`
	// SE is the sub-expression the node produces (join and chain-end
	// nodes), 0 otherwise.
	SE expr.Set `json:"se,omitempty"`
	// ChainInput/ChainDepth place chain nodes (-1 input otherwise).
	ChainInput int `json:"chainInput"`
	ChainDepth int `json:"chainDepth"`
	// RowsIn is the sum of the input nodes' RowsOut (RowsOut for scans).
	RowsIn  int64 `json:"rowsIn"`
	RowsOut int64 `json:"rowsOut"`
	Calls   int64 `json:"-"`
	// WallNanos/TapNanos: see Metrics.
	WallNanos int64 `json:"-"`
	TapNanos  int64 `json:"-"`
}

// RunMetrics is the per-operator metrics of one execution, in deterministic
// order (block index, then node ID).
type RunMetrics struct {
	Nodes []NodeMetrics
}

// MetricsSnapshot extracts the plan's populated node metrics after a run.
func (p *Plan) MetricsSnapshot() *RunMetrics {
	rm := &RunMetrics{}
	for _, bp := range p.Blocks {
		for _, n := range bp.Nodes {
			rm.Nodes = append(rm.Nodes, snapshotOf(bp.Block.Index, n))
		}
	}
	return rm
}

// snapshotOf is one node's metrics snapshot. RowsIn is derived from the
// operator DAG: the sum of the direct inputs' RowsOut (a scan's RowsIn
// equals its RowsOut — every source row is read).
func snapshotOf(block int, n *Node) NodeMetrics {
	nm := NodeMetrics{
		Block:      block,
		Node:       n.ID,
		Op:         n.Kind.String(),
		Label:      n.Label,
		SE:         n.SE,
		ChainInput: n.ChainInput,
		ChainDepth: n.ChainDepth,
		RowsOut:    n.Metrics.RowsOut,
		Calls:      n.Metrics.Calls,
		WallNanos:  n.Metrics.WallNanos,
		TapNanos:   n.Metrics.TapNanos,
	}
	switch {
	case n.Kind == OpScan:
		nm.RowsIn = n.Metrics.RowsOut
	case n.Kind == OpHashJoin:
		nm.RowsIn = n.Left.Metrics.RowsOut + n.Right.Metrics.RowsOut
	case n.Input != nil:
		nm.RowsIn = n.Input.Metrics.RowsOut
	}
	return nm
}

// Totals sums operator wall time and tap overhead across all nodes — the
// run-level split between execution work and observation work.
func (rm *RunMetrics) Totals() (wallNanos, tapNanos int64) {
	for _, n := range rm.Nodes {
		wallNanos += n.WallNanos
		tapNanos += n.TapNanos
	}
	return wallNanos, tapNanos
}

// Actuals returns the actual cardinality of every statistic target the
// executed plan materialized (see addActuals). These are the ground truths
// the estimate-feedback report compares derived estimates against.
func (rm *RunMetrics) Actuals() map[stats.Target]int64 {
	out := make(map[stats.Target]int64)
	for _, n := range rm.Nodes {
		n.addActuals(out)
	}
	return out
}

// addActuals records the statistic targets the node produced at its
// RowsOut: the sub-expression of a join or chain-end node under its cooked
// Depth=-1 identity, and the chain point of a chain node. A materialize
// node produces none.
func (nm NodeMetrics) addActuals(out map[stats.Target]int64) {
	if nm.Op == OpMaterialize.String() {
		return
	}
	if !nm.SE.Empty() {
		out[stats.BlockSE(nm.Block, nm.SE)] = nm.RowsOut
	}
	if nm.ChainInput >= 0 {
		out[stats.ChainPoint(nm.Block, nm.ChainInput, nm.ChainDepth)] = nm.RowsOut
	}
}
