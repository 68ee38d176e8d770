package engine

import (
	"fmt"
	"math"
	"slices"
	"time"

	"github.com/essential-stats/etlopt/internal/batch"
	"github.com/essential-stats/etlopt/internal/data"
	"github.com/essential-stats/etlopt/internal/physical"
	"github.com/essential-stats/etlopt/internal/workflow"
)

// The columnar block interpreter. It executes a compiled block plan over typed
// column vectors: filters mark rows in arena-allocated selection vectors,
// projects share column pointers, joins probe a chained hash index and emit
// the matched pairs as two index vectors over their inputs (a column is
// gathered only when something reads it, and a block's tables leave as index
// vectors into the scans: data.Late), and every operator-lifetime vector
// comes from one arena per block attempt. Observable behavior — block
// outputs, materialized tables, observed statistics, the work metric,
// deterministic metrics — is identical to internal/wftest's row-at-a-time
// reference evaluator; the equivalence suite enforces it.

// vecJoinChunk is how many counted join-output rows accumulate between row
// budget charges and cancellation polls.
const vecJoinChunk = 4096

// vecBlock is one block attempt's columnar evaluation state.
type vecBlock struct {
	bp      *physical.BlockPlan
	col     *collector
	out     *blockSink
	metrics bool
	arena   *batch.Arena
	// batches and rels hold each evaluated node's output by node ID.
	batches []*batch.Batch
	rels    []string
}

// runVecBlock interprets one compiled block columnar batch-at-a-time: every
// node evaluates in topological order over vectors, feeding its taps over
// the whole output batch at once. All vectors live in one arena scoped to
// the attempt; the block's output and the tables it materializes leave in
// late form, the statistic values in their store.
func runVecBlock(bp *physical.BlockPlan, col *collector, out *blockSink, metrics bool) error {
	a := batch.GetArena()
	defer batch.PutArena(a)
	v := &vecBlock{
		bp: bp, col: col, out: out, metrics: metrics, arena: a,
		batches: make([]*batch.Batch, len(bp.Nodes)),
		rels:    make([]string, len(bp.Nodes)),
	}
	for _, n := range bp.Nodes {
		b, err := v.evalVec(n)
		if err != nil {
			return fmt.Errorf("%s: %w", n.Label, err)
		}
		v.batches[n.ID] = b
	}
	out.out = v.late(v.batches[bp.Root.ID], bp.Root, v.rels[bp.Root.ID], bp.Root.Attrs)
	return nil
}

// late returns the live rows of b, node n's — the block's output, a
// materialization or a reject link — in late form, which outlives the arena.
// A column whose vector is a column of a source scan's batch reads that
// relation, which both ends of a dispatch hold, through the column's index
// vector. So does a column of an upstream output's scan that reads a source
// relation: through the upstream output's index composed with the column's,
// one input per index the upstream output has. Every other column is
// gathered into values. The table's loop is n's (loop), each level over the
// input its scan became and a rider's over the column it became; where one
// became none, the table has no loop.
func (v *vecBlock) late(b *batch.Batch, n *physical.Node, rel string, attrs []workflow.Attr) *data.Late {
	scans := make(map[*int64]scanCol)
	for _, n := range v.bp.Nodes {
		sb := v.batches[n.ID]
		if n.Kind != physical.OpScan || sb == nil {
			continue
		}
		up := v.out.held[n.FromBlock]
		for j, col := range sb.Cols {
			switch {
			case len(col) == 0:
			case n.FromBlock < 0 && n.Src.Rel == n.SourceRel:
				scans[&col[0]] = scanCol{src: n.Src, col: j, scan: [2]int{n.ID, 0}}
			case up != nil && up.Cols[j].In >= 0:
				in := up.Ins[up.Cols[j].In]
				scans[&col[0]] = scanCol{src: in.Src, idx: in.Idx, col: up.Cols[j].Col, scan: [2]int{n.ID, up.Cols[j].In}}
			}
		}
	}
	l := &data.Late{Rel: rel, Attrs: attrs, N: b.Rows(), Cols: make([]data.LateCol, len(b.Cols))}
	// The scan level each input reads, and the column of each gathered
	// vector.
	var scanOf [][2]int
	colOf := make(map[*int64]int)
	for _, rd := range b.Reads() {
		first := len(l.Ins) // the inputs of this read start here
		for _, c := range rd.Cols {
			src := b.Cols[c]
			if len(src) > 0 {
				if sc, ok := scans[&src[0]]; ok {
					k := first
					for k < len(l.Ins) && scanOf[k] != sc.scan {
						k++
					}
					if k == len(l.Ins) {
						idx := rd.Idx
						if sc.idx != nil {
							idx = make([]int32, len(rd.Idx))
							for i, r := range rd.Idx {
								idx[i] = sc.idx[r]
							}
						}
						l.Ins = append(l.Ins, data.LateInput{Src: sc.src, Idx: idx})
						scanOf = append(scanOf, sc.scan)
					}
					l.Cols[c] = data.LateCol{In: k, Col: sc.col}
					continue
				}
				colOf[&src[0]] = c
			}
			vals := make([]int64, len(rd.Idx))
			for i, r := range rd.Idx {
				vals[i] = src[r]
			}
			l.Cols[c] = data.LateCol{In: -1, Vals: vals}
		}
	}
	for k, lv := range v.loop(n, scans) {
		ok := true
		if lv.In = slices.Index(scanOf, lv.scan); k > 0 && lv.From == k {
			lv.FromCol, ok = colOf[lv.rider]
		}
		if !ok || lv.In < 0 {
			l.Levels = nil
			break
		}
		l.Levels = append(l.Levels, lv.LateLevel)
	}
	return l
}

// scanCol is a scanned vector that is column col of src, read at row idx[r]
// for the scan's row r; idx is nil, the identity, for a scan of src itself.
// Its rows are scan level scan's: input scan[1] of scan node scan[0], 0 for
// a source scan.
type scanCol struct {
	src  *data.Table
	idx  []int32
	col  int
	scan [2]int
}

// vecLevel is a level of the loop that made a node's rows: a data.LateLevel
// over scan level scan, not an input, and keyed, where a rider keys it, by
// the vector whose first element is rider.
type vecLevel struct {
	data.LateLevel
	scan  [2]int
	rider *int64
}

// loop is the nested loop that made node n's rows, over the scans late
// named. A source scan is one level, and a scan of an upstream output the
// upstream output's loop. A hash join is the probe side's loop and then the
// build side's, whose first level is keyed by the probe key: a column of a
// probe level's relation or, where it is no scan's, a rider. A group's rows
// are no loop's, nor are a join's where a side has none or the build key is
// not a column of the build side's first level.
func (v *vecBlock) loop(n *physical.Node, scans map[*int64]scanCol) []vecLevel {
	switch n.Kind {
	case physical.OpScan:
		if n.FromBlock < 0 {
			return []vecLevel{{scan: [2]int{n.ID, 0}}}
		}
		up, b := v.out.held[n.FromBlock], v.batches[n.ID]
		loop := make([]vecLevel, len(up.Levels))
		for k, ul := range up.Levels {
			loop[k] = vecLevel{LateLevel: ul, scan: [2]int{n.ID, ul.In}}
			if k > 0 && ul.From == k && len(b.Cols[ul.FromCol]) > 0 {
				loop[k].rider = &b.Cols[ul.FromCol][0]
			}
		}
		return loop
	case physical.OpFilter, physical.OpProject, physical.OpTransform, physical.OpMaterialize:
		return v.loop(n.Input, scans)
	case physical.OpHashJoin:
		probe, build := v.loop(n.Left, scans), v.loop(n.Right, scans)
		lcol, rcol := v.batches[n.Left.ID].Cols[n.LeftCol], v.batches[n.Right.ID].Cols[n.RightCol]
		if len(probe) == 0 || len(build) == 0 || len(lcol) == 0 || len(rcol) == 0 {
			return nil
		}
		bk, ok := scans[&rcol[0]]
		if !ok || bk.scan != build[0].scan {
			return nil
		}
		m := len(probe)
		loop := append(probe, build...)
		for k := m + 1; k < len(loop); k++ {
			loop[k].From += m
		}
		first := &loop[m]
		first.Key = bk.col
		if pk, ok := scans[&lcol[0]]; ok {
			first.From = slices.IndexFunc(probe, func(l vecLevel) bool { return l.scan == pk.scan })
			first.FromCol = pk.col
		} else {
			first.From, first.rider = m, &lcol[0]
		}
		return loop
	}
	return nil
}

// evalVec evaluates one physical node over its input batches, counts its
// output rows against the work metric and row budget, and feeds its taps.
// With metrics on, operator time is exclusive (inputs are already
// materialized) and tap observation is timed separately, so observation
// overhead never inflates operator time.
func (v *vecBlock) evalVec(n *physical.Node) (*batch.Batch, error) {
	if err := v.out.ctxErr(); err != nil {
		return nil, err
	}
	if err := v.out.opFault(n); err != nil {
		return nil, err
	}
	var start time.Time
	var met *physical.Metrics
	if v.metrics {
		met = &n.Metrics
		start = time.Now()
	}
	var b *batch.Batch
	switch n.Kind {
	case physical.OpScan:
		var err error
		if b, err = v.scan(n); err != nil {
			return nil, err
		}
	case physical.OpFilter, physical.OpProject, physical.OpTransform,
		physical.OpGroupBy, physical.OpAggregateUDF:
		b = vecApplyOp(n, v.batches[n.Input.ID], v.arena)
		v.rels[n.ID] = v.rels[n.Input.ID]
	case physical.OpHashJoin:
		return v.evalVecJoin(n, met, start)
	case physical.OpMaterialize:
		in := v.batches[n.Input.ID]
		v.out.materialized[n.Rel] = v.late(in, n.Input, v.rels[n.Input.ID], n.Attrs)
		v.rels[n.ID] = v.rels[n.Input.ID]
		// Materialization moves no rows: not counted, never tapped.
		return in, nil
	default:
		return nil, fmt.Errorf("unexpected physical operator %v", n.Kind)
	}
	if err := v.out.count(int64(b.Rows())); err != nil {
		return nil, err
	}
	taps, err := liveTaps(v.out, v.col, n.Taps, tapStat)
	if err != nil {
		return nil, err
	}
	if met != nil {
		met.WallNanos += time.Since(start).Nanoseconds()
		met.Calls++
		met.RowsOut += int64(b.Rows())
		if len(taps) > 0 {
			tapStart := time.Now()
			for _, t := range taps {
				v.col.collectVec(t, b, v.arena)
			}
			met.TapNanos += time.Since(tapStart).Nanoseconds()
		}
		return b, nil
	}
	for _, t := range taps {
		v.col.collectVec(t, b, v.arena)
	}
	return b, nil
}

// scan reads a scan node's relation into a batch: a source relation, or an
// upstream block's output, gathered from its late form.
func (v *vecBlock) scan(n *physical.Node) (*batch.Batch, error) {
	if n.FromBlock < 0 {
		v.rels[n.ID] = n.Src.Rel
		return batch.FromTable(n.Src, v.arena)
	}
	up, ok := v.out.held[n.FromBlock]
	if !ok || up == nil {
		return nil, fmt.Errorf("no output of upstream block %d to read", n.FromBlock)
	}
	v.rels[n.ID] = up.Rel
	return batch.FromLate(up, v.arena)
}

// vecApplyOp evaluates one per-row or blocking unary operator over a batch,
// allocating from the arena. The compiler already resolved columns and
// functions, so evaluation cannot fail.
func vecApplyOp(n *physical.Node, in *batch.Batch, a *batch.Arena) *batch.Batch {
	switch n.Kind {
	case physical.OpFilter:
		sel := batch.SelectPred(in.Col(n.PredCol), in.Sel, in.N,
			n.Pred.Op, n.Pred.Const, a.Int32(in.Rows()))
		return in.WithSel(sel)
	case physical.OpProject:
		// Zero copy: the projection is a column-pointer subset.
		return in.Project(n.Cols)
	case physical.OpTransform:
		derived := a.Int64(in.N)
		ins := readCols(in, n.FnIns)
		buf := make([]int64, len(ins))
		eachLive(in, func(ri int32) {
			for i, col := range ins {
				buf[i] = col[ri]
			}
			derived[ri] = n.Fn(buf)
		})
		return in.AppendCol(derived)
	case physical.OpGroupBy:
		return vecDedup(in, n.Cols, nil, a)
	case physical.OpAggregateUDF:
		return vecDedup(in, n.FnIns, n.Fn, a)
	default:
		return in
	}
}

// vecDedup emits one output row per distinct combination of the input's key
// columns, in first-seen order; with fn non-nil it appends the UDF value as
// a trailing column (the aggregate-UDF shape). Output vectors and the key
// set are arena-allocated at the worst-case size (every live row distinct);
// the vectors are sliced to the emitted count.
func vecDedup(in *batch.Batch, keyCols []int, fn physical.UDF, a *batch.Arena) *batch.Batch {
	live := in.Rows()
	w := len(keyCols)
	outW := w
	if fn != nil {
		outW++
	}
	cols := make([][]int64, outW)
	for i := range cols {
		cols[i] = a.Int64(live)
	}
	keys := readCols(in, keyCols)
	seen := newKeySet(w, live, a)
	scratch := make([]int64, w)
	k := 0
	emit := func(ri int32) {
		for i, col := range keys {
			scratch[i] = col[ri]
		}
		if !seen.add(scratch) {
			return
		}
		for i := range scratch {
			cols[i][k] = scratch[i]
		}
		if fn != nil {
			cols[w][k] = fn(scratch)
		}
		k++
	}
	eachLive(in, emit)
	for i := range cols {
		cols[i] = cols[i][:k]
	}
	return &batch.Batch{Cols: cols, N: k}
}

// evalVecJoin evaluates a hash-join node columnar: build a chained index on
// the right, then probe with the left's live rows in two passes. The
// counting pass finds each probe row's first match and sums the chain
// lengths, charging the row budget as the count grows, so a blowing-up join
// aborts before it allocates its output. The fill pass writes the matched
// pairs into two index vectors of exactly that size, and the output batch is
// those vectors over the inputs (batch.Join): no column is copied. Misses
// stay selection vectors over the input batches — collecting both sides'
// rejects costs no row materialization.
func (v *vecBlock) evalVecJoin(n *physical.Node, met *physical.Metrics, start time.Time) (*batch.Batch, error) {
	left, right := v.batches[n.Left.ID], v.batches[n.Right.ID]
	lcol := left.Col(n.LeftCol)
	ix := batch.NewJoinIndex(right.Col(n.RightCol), right.Sel, right.N, v.arena)
	live := left.Rows()
	// heads[k] is the first match of the k-th live left row, or -1.
	heads := v.arena.Int32(live)
	missSel := v.arena.Int32(live)
	nMiss := 0
	var m, pending int64
	for k := range heads {
		li := int32(k)
		if left.Sel != nil {
			li = left.Sel[k]
		}
		r := ix.First(lcol[li])
		heads[k] = r
		if r < 0 {
			missSel[nMiss] = li
			nMiss++
			continue
		}
		c := int64(ix.ChainLen(r))
		m += c
		pending += c
		if pending >= vecJoinChunk {
			if err := v.out.count(pending); err != nil {
				return nil, err
			}
			pending = 0
			if err := v.out.ctxErr(); err != nil {
				return nil, err
			}
		}
	}
	if err := v.out.count(pending); err != nil {
		return nil, err
	}
	if m > math.MaxInt32 {
		return nil, fmt.Errorf("join output beyond the int32 selection-vector limit")
	}
	// marks flags matched build rows; every row of a matched key gets set
	// during the chain walk, making the unmarked set identical to the row
	// interpreter's key-based right-miss set. Allocated only when the plan
	// observes right rejects.
	var marks []bool
	if n.RightReject != nil {
		marks = make([]bool, right.N)
	}
	lidx, ridx := v.arena.Int32(int(m)), v.arena.Int32(int(m))
	j := 0
	for k, r := range heads {
		li := int32(k)
		if left.Sel != nil {
			li = left.Sel[k]
		}
		for ; r >= 0; r = ix.Next(r) {
			lidx[j], ridx[j] = li, r
			j++
			if marks != nil {
				marks[r] = true
			}
		}
	}
	joined := batch.Join(left, right, lidx, ridx, v.arena)
	v.rels[n.ID] = v.rels[n.Left.ID] + "⋈" + v.rels[n.Right.ID]
	leftMiss := left.WithSel(missSel[:nMiss])
	taps, err := liveTaps(v.out, v.col, n.Taps, tapStat)
	if err != nil {
		return nil, err
	}
	var tapStart time.Time
	if met != nil {
		// Miss collection above is part of the join's own work; only the
		// statistic observation below counts as tap overhead.
		met.WallNanos += time.Since(start).Nanoseconds()
		met.Calls++
		met.RowsOut += m
		tapStart = time.Now()
	}
	for _, t := range taps {
		v.col.collectVec(t, joined, v.arena)
	}
	if n.LeftReject != nil {
		if err := v.collectVecReject(n.LeftReject, leftMiss); err != nil {
			return nil, err
		}
	}
	if n.RightReject != nil {
		rightMissSel := v.arena.Int32(right.Rows())
		nr := 0
		if right.Sel != nil {
			for _, ri := range right.Sel {
				if !marks[ri] {
					rightMissSel[nr] = ri
					nr++
				}
			}
		} else {
			for ri := 0; ri < right.N; ri++ {
				if !marks[ri] {
					rightMissSel[nr] = int32(ri)
					nr++
				}
			}
		}
		rightMiss := right.WithSel(rightMissSel[:nr])
		if err := v.collectVecReject(n.RightReject, rightMiss); err != nil {
			return nil, err
		}
	}
	if met != nil {
		met.TapNanos += time.Since(tapStart).Nanoseconds()
	}
	if n.RejectLink != "" {
		v.out.materialized[n.RejectLink] = v.late(leftMiss, n.Left, v.rels[n.Left.ID]+"!", n.Left.Attrs)
	}
	return joined, nil
}

// collectVecReject feeds one side's reject statistics: singletons over the
// miss batch directly, two-input variants through their auxiliary joins
// with the partner's cooked (chain-end) batch.
func (v *vecBlock) collectVecReject(rt *physical.RejectTaps, misses *batch.Batch) error {
	singles, err := liveTaps(v.out, v.col, rt.Singles, tapStat)
	if err != nil {
		return err
	}
	for _, t := range singles {
		v.col.collectVec(t, misses, v.arena)
	}
	aux, err := liveTaps(v.out, v.col, rt.Aux, auxStat)
	if err != nil {
		return err
	}
	for _, aj := range aux {
		ch := v.bp.Chains[aj.Partner]
		partner := v.batches[ch[len(ch)-1].ID]
		if partner == nil {
			continue
		}
		v.col.collectAux(aj, misses, partner, v.arena)
	}
	return nil
}
