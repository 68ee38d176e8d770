package wftest

import (
	"fmt"

	"github.com/essential-stats/etlopt/internal/data"
	"github.com/essential-stats/etlopt/internal/expr"
	"github.com/essential-stats/etlopt/internal/physical"
	"github.com/essential-stats/etlopt/internal/workflow"
)

// SECard is the brute-force sub-expression oracle: it materializes one SE of
// a block — each member input's pushed-down chain replayed over its source
// relation (or the upstream block's output in blockOut), then hash-joined
// along the block's join edges — and returns the result's cardinality. It
// reads the logical analysis only: no compiled plan, no candidate
// statistics sets, no estimator, so agreement with any of them means
// something.
func SECard(an *workflow.Analysis, db DB, blockOut map[int]*data.Table, block int, se expr.Set) (int64, error) {
	blk := an.Blocks[block]
	members := se.Members()
	cur, err := seInput(blk, members[0], db, blockOut)
	if err != nil {
		return 0, err
	}
	joined := expr.NewSet(members[0])
	for joined != se {
		progress := false
		for _, e := range blk.Joins {
			var next int
			switch {
			case joined.Has(e.LeftInput) && se.Has(e.RightInput) && !joined.Has(e.RightInput):
				next = e.RightInput
			case joined.Has(e.RightInput) && se.Has(e.LeftInput) && !joined.Has(e.LeftInput):
				next = e.LeftInput
			default:
				continue
			}
			nt, err := seInput(blk, next, db, blockOut)
			if err != nil {
				return 0, err
			}
			la, ra := e.LeftAttr, e.RightAttr
			if cur.Col(la) < 0 {
				la, ra = ra, la
			}
			lc, rc := cur.Col(la), nt.Col(ra)
			if lc < 0 || rc < 0 {
				return 0, fmt.Errorf("block %d: join attributes %v/%v not found", block, la, ra)
			}
			cur, _, _ = hashJoin(cur, nt, lc, rc)
			joined = joined.Add(next)
			progress = true
		}
		if !progress {
			return 0, fmt.Errorf("block %d: SE %v is not connected", block, se)
		}
	}
	return cur.Card(), nil
}

// seInput resolves one block input and replays its pushed-down unary
// operators with the default UDF registry.
func seInput(blk *workflow.Block, i int, db DB, blockOut map[int]*data.Table) (*data.Table, error) {
	in := blk.Inputs[i]
	tbl := db[in.SourceRel]
	if in.SourceRel == "" {
		tbl = blockOut[in.FromBlock]
	}
	if tbl == nil {
		return nil, fmt.Errorf("block %d: input %d (%s) has no table", blk.Index, i, in.Name)
	}
	for _, op := range in.Ops {
		out := &data.Table{Rel: tbl.Rel, Attrs: tbl.Attrs}
		switch op.Kind {
		case workflow.KindSelect:
			c := tbl.Col(op.Pred.Attr)
			for _, r := range tbl.Rows {
				if op.Pred.Matches(r[c]) {
					out.Rows = append(out.Rows, r)
				}
			}
		case workflow.KindProject:
			out.Attrs = op.Cols
			cols := attrCols(tbl, op.Cols)
			for _, r := range tbl.Rows {
				out.Rows = append(out.Rows, pick(r, cols))
			}
		case workflow.KindTransform:
			fn, ok := physical.DefaultRegistry()[op.Transform.Fn]
			if !ok {
				return nil, fmt.Errorf("unknown UDF %q", op.Transform.Fn)
			}
			out.Attrs = append(append([]workflow.Attr(nil), tbl.Attrs...), op.Transform.Out)
			ins := attrCols(tbl, op.Transform.Ins)
			for _, r := range tbl.Rows {
				out.Rows = append(out.Rows, append(append(data.Row(nil), r...), fn(pick(r, ins))))
			}
		default:
			return nil, fmt.Errorf("unexpected pushed-down operator %v", op.Kind)
		}
		tbl = out
	}
	return tbl, nil
}

// attrCols resolves attributes to column positions of the table.
func attrCols(tbl *data.Table, attrs []workflow.Attr) []int {
	cols := make([]int, len(attrs))
	for i, a := range attrs {
		cols[i] = tbl.Col(a)
	}
	return cols
}
