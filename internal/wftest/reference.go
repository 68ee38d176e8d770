package wftest

import (
	"encoding/binary"
	"fmt"

	"github.com/essential-stats/etlopt/internal/data"
	"github.com/essential-stats/etlopt/internal/physical"
	"github.com/essential-stats/etlopt/internal/stats"
)

// The reference evaluator: a deliberately naive, sequential, row-at-a-time
// interpreter of a compiled physical plan. It is what "correct" means for
// the product's columnar executors — the equivalence goldens and the
// property tests compare every engine configuration against it — so it
// stays independent of them: plain row slices and Go maps, every
// intermediate materialized, no batching, no workers, no fault sites, no
// budget, no timing.

// Result is the externally visible outcome of one run: what Evaluate
// returns, and the view of an engine result the comparison helpers take.
type Result struct {
	// BlockOut holds each block's boundary output.
	BlockOut map[int]*data.Table
	// Sinks holds the target record-sets by name.
	Sinks map[string]*data.Table
	// Materialized holds materialized intermediates and reject links.
	Materialized map[string]*data.Table
	// Rows is the work metric: tuples produced across all operators.
	Rows int64
	// Observed holds the statistics the plan's taps collected (Evaluate
	// always returns a store, empty for an uninstrumented plan).
	Observed *stats.Store
	// Metrics carries per-node RowsIn/RowsOut (Evaluate fills nothing else).
	Metrics *physical.RunMetrics
}

// Evaluate interprets the compiled plan and returns its outcome. It writes
// each node's RowsOut into the plan (that is where MetricsSnapshot reads
// from), so evaluate a plan compiled for the purpose.
func Evaluate(plan *physical.Plan) (*Result, error) {
	ev := &evaluator{
		store:        stats.NewStore(),
		blockOut:     make(map[int]*data.Table),
		materialized: make(map[string]*data.Table),
	}
	for _, bp := range plan.Blocks {
		tables := make([]*data.Table, len(bp.Nodes))
		for _, n := range bp.Nodes {
			tbl, err := ev.node(bp, n, tables)
			if err != nil {
				return nil, fmt.Errorf("block %d: %s: %w", bp.Block.Index, n.Label, err)
			}
			tables[n.ID] = tbl
		}
		ev.blockOut[bp.Block.Index] = tables[bp.Root.ID]
	}
	sinks := make(map[string]*data.Table)
	for _, sink := range plan.An.Graph.Sinks() {
		// The sink's input is an operator inside a block or a block's
		// terminal; either way that block's boundary output feeds it.
		in := sink.Inputs[0]
		blk := plan.An.BlockOf(in)
		for _, b := range plan.An.Blocks {
			if blk == nil && b.Terminal == in {
				blk = b
			}
		}
		if blk == nil {
			return nil, fmt.Errorf("sink %q: cannot locate producing block", sink.ID)
		}
		sinks[sink.Rel] = ev.blockOut[blk.Index]
	}
	return &Result{
		BlockOut:     ev.blockOut,
		Sinks:        sinks,
		Materialized: ev.materialized,
		Rows:         ev.rows,
		Observed:     ev.store,
		Metrics:      plan.MetricsSnapshot(),
	}, nil
}

type evaluator struct {
	store        *stats.Store
	blockOut     map[int]*data.Table
	materialized map[string]*data.Table
	rows         int64
}

// node evaluates one operator over its inputs' tables, counts its output
// toward the work metric and feeds its taps.
func (ev *evaluator) node(bp *physical.BlockPlan, n *physical.Node, tables []*data.Table) (*data.Table, error) {
	var tbl *data.Table
	switch n.Kind {
	case physical.OpScan:
		tbl = n.Src
		if n.FromBlock >= 0 {
			if tbl = ev.blockOut[n.FromBlock]; tbl == nil {
				return nil, fmt.Errorf("upstream block %d not yet executed", n.FromBlock)
			}
		}
	case physical.OpFilter:
		in := tables[n.Input.ID]
		tbl = &data.Table{Rel: in.Rel, Attrs: n.Attrs}
		for _, r := range in.Rows {
			if n.Pred.Matches(r[n.PredCol]) {
				tbl.Rows = append(tbl.Rows, r)
			}
		}
	case physical.OpProject:
		in := tables[n.Input.ID]
		tbl = &data.Table{Rel: in.Rel, Attrs: n.Attrs}
		for _, r := range in.Rows {
			tbl.Rows = append(tbl.Rows, pick(r, n.Cols))
		}
	case physical.OpTransform:
		in := tables[n.Input.ID]
		tbl = &data.Table{Rel: in.Rel, Attrs: n.Attrs}
		for _, r := range in.Rows {
			row := append(append(data.Row(nil), r...), n.Fn(pick(r, n.FnIns)))
			tbl.Rows = append(tbl.Rows, row)
		}
	case physical.OpGroupBy:
		// One row per distinct key combination, in first-seen order.
		in := tables[n.Input.ID]
		tbl = &data.Table{Rel: in.Rel, Attrs: n.Attrs}
		seen := make(map[string]bool)
		for _, r := range in.Rows {
			key := pick(r, n.Cols)
			if k := rowKey(key); !seen[k] {
				seen[k] = true
				tbl.Rows = append(tbl.Rows, key)
			}
		}
	case physical.OpAggregateUDF:
		// One row per distinct input combination, carrying the UDF value.
		in := tables[n.Input.ID]
		tbl = &data.Table{Rel: in.Rel, Attrs: n.Attrs}
		seen := make(map[string]bool)
		for _, r := range in.Rows {
			key := pick(r, n.FnIns)
			if k := rowKey(key); !seen[k] {
				seen[k] = true
				tbl.Rows = append(tbl.Rows, append(key, n.Fn(key)))
			}
		}
	case physical.OpHashJoin:
		joined, leftMiss, rightMiss := hashJoin(tables[n.Left.ID], tables[n.Right.ID], n.LeftCol, n.RightCol)
		if n.LeftReject != nil {
			if err := ev.reject(bp, n.LeftReject, leftMiss, tables); err != nil {
				return nil, err
			}
		}
		if n.RightReject != nil {
			if err := ev.reject(bp, n.RightReject, rightMiss, tables); err != nil {
				return nil, err
			}
		}
		if n.RejectLink != "" {
			ev.materialized[n.RejectLink] = leftMiss
		}
		tbl = joined
	case physical.OpMaterialize:
		// Materialization moves no rows: not counted, never tapped.
		tbl = tables[n.Input.ID]
		ev.materialized[n.Rel] = tbl
		return tbl, nil
	default:
		return nil, fmt.Errorf("unexpected physical operator %v", n.Kind)
	}
	ev.rows += tbl.Card()
	n.Metrics.RowsOut = tbl.Card()
	for _, t := range n.Taps {
		if err := ev.collect(t, tbl); err != nil {
			return nil, err
		}
	}
	return tbl, nil
}

// reject feeds one join side's reject statistics: singletons over the miss
// rows directly, two-input variants (rule J4's union–division counters)
// over the misses joined with the partner input's cooked table.
func (ev *evaluator) reject(bp *physical.BlockPlan, rt *physical.RejectTaps, misses *data.Table, tables []*data.Table) error {
	for _, t := range rt.Singles {
		if err := ev.collect(t, misses); err != nil {
			return err
		}
	}
	for _, aj := range rt.Aux {
		chain := bp.Chains[aj.Partner]
		partner := tables[chain[len(chain)-1].ID]
		joined, _, _ := hashJoin(misses, partner, aj.MissCol, aj.PartnerCol)
		if err := ev.collect(physical.Tap{Stat: aj.Stat, Cols: aj.Cols}, joined); err != nil {
			return err
		}
	}
	return nil
}

// collect records one tap's statistic over a whole record-set. The store is
// write-once per statistic: a plan that surfaces the same target twice
// keeps the first observation.
func (ev *evaluator) collect(tap physical.Tap, tbl *data.Table) error {
	if ev.store.Has(tap.Stat) {
		return nil
	}
	switch tap.Stat.Kind {
	case stats.Card:
		return ev.store.Put(&stats.Value{Stat: tap.Stat, Scalar: tbl.Card()})
	case stats.Distinct:
		seen := make(map[string]bool)
		for _, r := range tbl.Rows {
			seen[rowKey(pick(r, tap.Cols))] = true
		}
		return ev.store.Put(&stats.Value{Stat: tap.Stat, Scalar: int64(len(seen))})
	case stats.Hist:
		h := stats.NewHistogram(tap.Stat.Attrs...)
		for _, r := range tbl.Rows {
			if err := h.Inc(pick(r, tap.Cols), 1); err != nil {
				return err
			}
		}
		return ev.store.Put(&stats.Value{Stat: tap.Stat, Hist: h})
	}
	return fmt.Errorf("unexpected statistic kind %v", tap.Stat.Kind)
}

// hashJoin equi-joins two tables on the given columns (output rows are left
// ++ right), also returning each side's non-matching rows: the reject sets.
func hashJoin(left, right *data.Table, lc, rc int) (joined, leftMiss, rightMiss *data.Table) {
	index := make(map[int64][]data.Row)
	for _, r := range right.Rows {
		index[r[rc]] = append(index[r[rc]], r)
	}
	joined = &data.Table{Rel: left.Rel + "⋈" + right.Rel}
	joined.Attrs = append(append(joined.Attrs, left.Attrs...), right.Attrs...)
	leftMiss = &data.Table{Rel: left.Rel + "!", Attrs: left.Attrs}
	matched := make(map[int64]bool)
	for _, l := range left.Rows {
		matches := index[l[lc]]
		if len(matches) == 0 {
			leftMiss.Rows = append(leftMiss.Rows, l)
			continue
		}
		matched[l[lc]] = true
		for _, r := range matches {
			joined.Rows = append(joined.Rows, append(append(data.Row(nil), l...), r...))
		}
	}
	rightMiss = &data.Table{Rel: right.Rel + "!", Attrs: right.Attrs}
	for _, r := range right.Rows {
		if !matched[r[rc]] {
			rightMiss.Rows = append(rightMiss.Rows, r)
		}
	}
	return joined, leftMiss, rightMiss
}

// pick copies the given columns of a row into a fresh row.
func pick(r data.Row, cols []int) data.Row {
	out := make(data.Row, len(cols))
	for i, c := range cols {
		out[i] = r[c]
	}
	return out
}

// rowKey encodes a row's values as a fixed-width map key.
func rowKey(vals []int64) string {
	buf := make([]byte, 0, 8*len(vals))
	for _, v := range vals {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
	}
	return string(buf)
}
