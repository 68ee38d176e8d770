package engine

import (
	"fmt"
	"sync"

	"github.com/essential-stats/etlopt/internal/batch"
	"github.com/essential-stats/etlopt/internal/data"
	"github.com/essential-stats/etlopt/internal/physical"
)

// Columnar streaming interpreter. It executes the same compiled block plans
// as runVecBlock, chunk-at-a-time: input chains split into contiguous
// ranges processed through vectorized operators with per-worker statistic
// shards, and join trees execute as a probe cascade along the streamed
// spine — the base input partitioned by hash of the first probe key, each
// worker driving vector chunks through every probe stage with per-worker
// observers, miss accumulators and match marks. Workers <= 1 runs the same
// code over a single partition. After a pipeline drains, the shards merge
// (counts add, histogram buckets add, distinct sets union, sketches fold)
// and the merged observer records into the store, so every observed
// statistic is identical at any worker count; the equivalence suite checks
// that against the reference evaluator.

// budgetChunk is how many rows a worker accumulates locally before charging
// the shared row budget: the guard stays cheap under contention while still
// aborting a blowing-up cascade promptly.
const budgetChunk = 1024

// vecStream is one block attempt's columnar streaming state.
type vecStream struct {
	workers int
	bp      *physical.BlockPlan
	col     *collector
	out     *blockSink
	metrics bool
	// arena is the block-attempt arena; worker goroutines take their own
	// chunk arenas and copy results out before releasing them.
	arena  *batch.Arena
	inputs []*batch.Batch
}

// runVecStreamBlock pipelines one compiled block columnar: chains cook
// their inputs chunk-at-a-time, the join spine probes vector chunks through
// every stage, and the pinned top operators evaluate whole-batch.
func runVecStreamBlock(bp *physical.BlockPlan, col *collector, out *blockSink, workers int, metrics bool) (*data.Table, error) {
	a := batch.GetArena()
	defer batch.PutArena(a)
	v := &vecStream{workers: workers, bp: bp, col: col, out: out, metrics: metrics, arena: a}
	v.inputs = make([]*batch.Batch, len(bp.Chains))
	for i, chain := range bp.Chains {
		b, err := v.runVecChain(chain)
		if err != nil {
			return nil, fmt.Errorf("input %d (%s): %w", i, bp.Block.Inputs[i].Name, err)
		}
		v.inputs[i] = b
	}
	var result *batch.Batch
	switch {
	case bp.JoinRoot == nil:
		// Join-free block: the compiler guarantees a single input.
		result = v.inputs[0]
	case bp.JoinRoot.Kind != physical.OpHashJoin:
		// Single-leaf tree: the root is the cooked chain end, already
		// tapped and counted by the chain pipeline.
		result = v.inputs[bp.JoinRoot.ChainInput]
	default:
		var err error
		if result, err = v.runVecSpine(bp.JoinRoot); err != nil {
			return nil, err
		}
	}
	for _, n := range bp.TopNodes {
		if err := v.out.ctxErr(); err != nil {
			return nil, err
		}
		if err := v.out.opFault(n); err != nil {
			return nil, err
		}
		if n.Kind == physical.OpMaterialize {
			// The materialized table outlives the arena: copy it out.
			v.out.materialized[n.Rel] = result.Table(n.Rel, n.Attrs)
			continue
		}
		next := vecApplyOp(n, result, v.arena)
		if err := v.out.count(int64(next.Rows())); err != nil {
			return nil, fmt.Errorf("top op %s: %w", n.Label, err)
		}
		taps, err := v.out.liveTaps(v.col, n.Taps)
		if err != nil {
			return nil, err
		}
		for _, t := range taps {
			v.col.collectVec(t, next)
		}
		if v.metrics {
			n.Metrics.Calls++
			n.Metrics.RowsOut += int64(next.Rows())
		}
		result = next
	}
	// The boundary output outlives the arena: copy it out.
	return result.Table("block", bp.Root.Attrs), nil
}

// perRowChain reports whether every chain operator past the scan is per-row
// (filter, project, transform): only then can chunks run independently.
// Block analysis cuts chains at blocking operators, so this always holds
// today; the check keeps the fallback honest if that ever changes.
func perRowChain(chain []*physical.Node) bool {
	for _, n := range chain[1:] {
		switch n.Kind {
		case physical.OpFilter, physical.OpProject, physical.OpTransform:
		default:
			return false
		}
	}
	return true
}

// runVecChain cooks one input chain into a batch, observing every chain
// point. Large bases with per-row chains fan out across workers in
// contiguous chunks.
func (v *vecStream) runVecChain(chain []*physical.Node) (*batch.Batch, error) {
	// Fault sites are checked up front for the whole chain — same sites,
	// same order as the batch interpreter's node loop.
	for _, n := range chain {
		if err := v.out.opFault(n); err != nil {
			return nil, err
		}
	}
	scan := chain[0]
	base := scan.Src
	if scan.FromBlock >= 0 {
		up, ok := v.out.upstream[scan.FromBlock]
		if !ok {
			return nil, fmt.Errorf("upstream block %d not yet executed", scan.FromBlock)
		}
		base = up
	}
	// Fault-filter every node's taps once, before any fan-out, so the
	// injector's decision is made exactly once per site per attempt no
	// matter the worker count.
	liveTaps := make([][]physical.Tap, len(chain))
	for i, n := range chain {
		lt, err := v.out.liveTaps(v.col, n.Taps)
		if err != nil {
			return nil, err
		}
		liveTaps[i] = lt
	}
	if v.workers > 1 && len(base.Rows) >= 2*v.workers && perRowChain(chain) {
		return v.runVecChainParallel(chain, base, liveTaps)
	}
	b, err := batch.FromTable(base, v.arena)
	if err != nil {
		return nil, err
	}
	for i, n := range chain {
		if err := v.out.ctxErr(); err != nil {
			return nil, err
		}
		if i > 0 {
			b = vecApplyOp(n, b, v.arena)
		}
		live := int64(b.Rows())
		if err := v.out.count(live); err != nil {
			return nil, fmt.Errorf("%s: %w", n.Label, err)
		}
		for _, t := range liveTaps[i] {
			v.col.collectVec(t, b)
		}
		if v.metrics {
			n.Metrics.Calls++
			n.Metrics.RowsOut += live
		}
	}
	return b, nil
}

// runVecChainParallel runs a per-row chain over contiguous chunks of the
// base relation, one worker per chunk, each observing into private shards.
// Chunk outputs concatenate in order, so the cooked input's row order
// matches the sequential path exactly.
func (v *vecStream) runVecChainParallel(chain []*physical.Node, base *data.Table, liveTaps [][]physical.Tap) (*batch.Batch, error) {
	full, err := batch.FromTable(base, v.arena)
	if err != nil {
		return nil, err
	}
	w := v.workers
	type chainShard struct {
		rows    int64
		obs     [][]vecObserver // per chain node, in depth order
		mets    []physical.Metrics
		outCols [][]int64 // chunk output, copied off the worker arena
		outN    int
		err     error
	}
	shards := make([]*chainShard, w)
	var wg sync.WaitGroup
	for wi := 0; wi < w; wi++ {
		shard := &chainShard{
			obs:  make([][]vecObserver, len(chain)),
			mets: make([]physical.Metrics, len(chain)),
		}
		for i := range chain {
			shard.obs[i] = vecObserversFor(v.col, liveTaps[i])
		}
		shards[wi] = shard
		lo, hi := wi*full.N/w, (wi+1)*full.N/w
		wg.Add(1)
		go func() {
			defer wg.Done()
			ca := batch.GetArena()
			defer batch.PutArena(ca)
			// The worker's chunk is a free view: column slices of the
			// shared base vectors.
			cols := make([][]int64, len(full.Cols))
			for c := range cols {
				cols[c] = full.Cols[c][lo:hi]
			}
			b := &batch.Batch{Cols: cols, N: hi - lo}
			var pend int64
			for i, n := range chain {
				if v.out.ctx != nil {
					if err := v.out.ctx.Err(); err != nil {
						shard.err = err
						return
					}
				}
				if i > 0 {
					b = vecApplyOp(n, b, ca)
				}
				live := int64(b.Rows())
				shard.rows += live
				shard.mets[i].Calls = 1
				shard.mets[i].RowsOut += live
				for _, o := range shard.obs[i] {
					o.observeVec(b)
				}
				if v.out.budget != nil {
					pend += live
					if pend >= budgetChunk {
						if err := v.out.budget.add(pend); err != nil {
							shard.err = fmt.Errorf("%s: %w", n.Label, err)
							return
						}
						pend = 0
					}
				}
			}
			if v.out.budget != nil && pend > 0 {
				if err := v.out.budget.add(pend); err != nil {
					shard.err = fmt.Errorf("%s: %w", chain[len(chain)-1].Label, err)
					return
				}
			}
			// The chunk output references the worker arena: copy the live
			// rows out before the arena is released.
			shard.outCols = batch.AppendLive(make([][]int64, len(b.Cols)), b)
			shard.outN = b.Rows()
		}()
	}
	wg.Wait()
	for _, shard := range shards {
		if shard.err != nil {
			return nil, shard.err
		}
	}
	// Concatenate chunk outputs in order, merge the statistic shards per
	// chain point, and fold the per-worker row counters (the budget was
	// already charged by the workers).
	width := len(shards[0].outCols)
	cat := make([][]int64, width)
	total := 0
	for _, shard := range shards {
		v.out.rows += shard.rows
		total += shard.outN
	}
	for c := 0; c < width; c++ {
		cat[c] = make([]int64, 0, total)
		for _, shard := range shards {
			cat[c] = append(cat[c], shard.outCols[c]...)
		}
	}
	for d, n := range chain {
		group := make([][]vecObserver, w)
		for wi, shard := range shards {
			group[wi] = shard.obs[d]
		}
		if err := mergeVecShards(group); err != nil {
			return nil, err
		}
		if v.metrics {
			for _, shard := range shards {
				n.Metrics.Merge(&shard.mets[d])
			}
		}
	}
	return &batch.Batch{Cols: cat, N: total}, nil
}

// vecSpineStage is one hash join along the streamed spine: the compiled
// node plus the indexed build side and the fault-filtered tap lists (made
// once at stage build, so every worker shares one injector decision per
// site).
type vecSpineStage struct {
	jn           *physical.Node
	right        *batch.Batch
	ix           *batch.JoinIndex
	taps         []physical.Tap
	leftSingles  []physical.Tap
	rightSingles []physical.Tap
	leftAux      []*physical.AuxJoin
	rightAux     []*physical.AuxJoin
	// needLeftMiss: the stage's left misses must be accumulated (reject
	// statistics, auxiliary joins or a designed reject link consume them).
	needLeftMiss bool
	// width is the cascade row width entering this stage.
	width int
}

// runVecSpine executes a join subtree as a partitioned columnar probe
// cascade: build sides indexed once, the base input's live rows partitioned
// by hash of the first probe key, each worker driving vector chunks through
// every stage. Workers <= 1 uses a single partition (preserving base
// order); the merged result is identical either way.
func (v *vecStream) runVecSpine(root *physical.Node) (*batch.Batch, error) {
	// Collect the streamed spine bottom-up; the spine leaf is the base
	// input every probe partition starts from.
	var joins []*physical.Node
	cur := root
	for cur.Kind == physical.OpHashJoin {
		joins = append(joins, cur)
		cur = cur.Left
	}
	for i, j := 0, len(joins)-1; i < j; i, j = i+1, j-1 {
		joins[i], joins[j] = joins[j], joins[i]
	}
	base := v.inputs[cur.ChainInput]

	stages := make([]*vecSpineStage, 0, len(joins))
	width := len(base.Cols)
	for _, jn := range joins {
		if err := v.out.ctxErr(); err != nil {
			return nil, err
		}
		if err := v.out.opFault(jn); err != nil {
			return nil, err
		}
		var right *batch.Batch
		if jn.Right.Kind == physical.OpHashJoin {
			var err error
			if right, err = v.runVecSpine(jn.Right); err != nil {
				return nil, err
			}
		} else {
			right = v.inputs[jn.Right.ChainInput]
		}
		st := &vecSpineStage{jn: jn, right: right, width: width}
		st.ix = batch.NewJoinIndex(right.Cols[jn.RightCol], right.Sel, right.N, v.arena)
		var err error
		if st.taps, err = v.out.liveTaps(v.col, jn.Taps); err != nil {
			return nil, err
		}
		if jn.LeftReject != nil {
			if st.leftSingles, err = v.out.liveTaps(v.col, jn.LeftReject.Singles); err != nil {
				return nil, err
			}
			if st.leftAux, err = v.out.liveAux(v.col, jn.LeftReject.Aux); err != nil {
				return nil, err
			}
		}
		if jn.RightReject != nil {
			if st.rightSingles, err = v.out.liveTaps(v.col, jn.RightReject.Singles); err != nil {
				return nil, err
			}
			if st.rightAux, err = v.out.liveAux(v.col, jn.RightReject.Aux); err != nil {
				return nil, err
			}
		}
		st.needLeftMiss = len(st.leftSingles) > 0 || len(st.leftAux) > 0 || jn.RejectLink != ""
		width += len(right.Cols)
		stages = append(stages, st)
	}

	w := v.workers
	if w < 1 {
		w = 1
	}
	// Partition the base's live rows by hash of the first probe key: all
	// rows of one key land on one worker, rows keep relative order within a
	// partition.
	parts := make([][]int32, w)
	keyCol := base.Cols[stages[0].jn.LeftCol]
	addPart := func(ri int32) {
		p := int(splitmix64(uint64(keyCol[ri])) % uint64(w))
		parts[p] = append(parts[p], ri)
	}
	if base.Sel != nil {
		for _, ri := range base.Sel {
			addPart(ri)
		}
	} else {
		for ri := 0; ri < base.N; ri++ {
			addPart(int32(ri))
		}
	}

	type stageShard struct {
		seObs    []vecObserver
		missCols [][]int64 // accumulated left-miss rows (heap)
		missN    int
		marks    []bool // matched build rows (nil unless RightReject)
	}
	type spineShard struct {
		rows    int64
		outCols [][]int64
		outN    int
		stages  []stageShard
		mets    []physical.Metrics
		err     error
	}
	finalWidth := width
	shards := make([]*spineShard, w)
	var wg sync.WaitGroup
	for wi := 0; wi < w; wi++ {
		shard := &spineShard{
			outCols: make([][]int64, finalWidth),
			stages:  make([]stageShard, len(stages)),
			mets:    make([]physical.Metrics, len(stages)),
		}
		for si, st := range stages {
			shard.stages[si].seObs = vecObserversFor(v.col, st.taps)
			if st.needLeftMiss {
				shard.stages[si].missCols = make([][]int64, st.width)
			}
			if st.jn.RightReject != nil {
				shard.stages[si].marks = make([]bool, st.right.N)
			}
		}
		shards[wi] = shard
		part := parts[wi]
		wg.Add(1)
		go func() {
			defer wg.Done()
			ca := batch.GetArena()
			defer batch.PutArena(ca)
			var lidx, ridx []int32
			// pend counts joined rows not yet charged to the shared budget.
			var pend int64
			for start := 0; start < len(part); start += vecJoinChunk {
				if v.out.ctx != nil {
					if err := v.out.ctx.Err(); err != nil {
						shard.err = err
						return
					}
				}
				end := start + vecJoinChunk
				if end > len(part) {
					end = len(part)
				}
				cur := &batch.Batch{Cols: base.Cols, N: base.N, Sel: part[start:end]}
				for si, st := range stages {
					ss := &shard.stages[si]
					lidx, ridx = lidx[:0], ridx[:0]
					missSel := ca.Int32(cur.Rows())
					nMiss := 0
					probeCol := cur.Cols[st.jn.LeftCol]
					probe := func(li int32) error {
						r := st.ix.First(probeCol[li])
						if r < 0 {
							missSel[nMiss] = li
							nMiss++
							return nil
						}
						matched := len(lidx)
						for ; r >= 0; r = st.ix.Next(r) {
							lidx = append(lidx, li)
							ridx = append(ridx, r)
							if ss.marks != nil {
								ss.marks[r] = true
							}
						}
						// The budget is charged while the match set grows, so
						// a blowing-up probe trips the guard before its output
						// is gathered (and before lidx/ridx blow up themselves).
						if v.out.budget != nil {
							if pend += int64(len(lidx) - matched); pend >= budgetChunk {
								n := pend
								pend = 0
								return v.out.budget.add(n)
							}
						}
						return nil
					}
					var err error
					if cur.Sel != nil {
						for i := 0; i < len(cur.Sel) && err == nil; i++ {
							err = probe(cur.Sel[i])
						}
					} else {
						for li := 0; li < cur.N && err == nil; li++ {
							err = probe(int32(li))
						}
					}
					if err != nil {
						shard.err = fmt.Errorf("%s: %w", st.jn.Label, err)
						return
					}
					if nMiss > 0 && st.needLeftMiss {
						miss := &batch.Batch{Cols: cur.Cols, N: cur.N, Sel: missSel[:nMiss]}
						ss.missCols = batch.AppendLive(ss.missCols, miss)
						ss.missN += nMiss
					}
					// Gather matched pairs into the next cascade batch.
					m := len(lidx)
					wL, wR := len(cur.Cols), len(st.right.Cols)
					cols := make([][]int64, wL+wR)
					for c := 0; c < wL; c++ {
						cols[c] = ca.Int64(m)
						batch.Gather(cols[c], cur.Cols[c], lidx)
					}
					for c := 0; c < wR; c++ {
						cols[wL+c] = ca.Int64(m)
						batch.Gather(cols[wL+c], st.right.Cols[c], ridx)
					}
					cur = &batch.Batch{Cols: cols, N: m}
					for _, o := range ss.seObs {
						o.observeVec(cur)
					}
					shard.rows += int64(m)
					shard.mets[si].Calls = 1
					shard.mets[si].RowsOut += int64(m)
				}
				shard.outCols = batch.AppendLive(shard.outCols, cur)
				shard.outN += cur.Rows()
				ca.Reset()
			}
			if v.out.budget != nil && pend > 0 {
				if err := v.out.budget.add(pend); err != nil {
					shard.err = fmt.Errorf("%s: %w", stages[len(stages)-1].jn.Label, err)
				}
			}
		}()
	}
	wg.Wait()
	for _, shard := range shards {
		if shard.err != nil {
			return nil, shard.err
		}
	}

	// Merge: worker outputs concatenate, observer shards fold into the
	// store, miss accumulators concatenate (reject statistics, auxiliary
	// joins, reject links), match marks union so build-side misses are
	// computed once.
	cat := make([][]int64, finalWidth)
	total := 0
	for _, shard := range shards {
		v.out.rows += shard.rows
		total += shard.outN
	}
	for c := 0; c < finalWidth; c++ {
		cat[c] = make([]int64, 0, total)
		for _, shard := range shards {
			cat[c] = append(cat[c], shard.outCols[c]...)
		}
	}
	for si, st := range stages {
		jn := st.jn
		if v.metrics {
			for _, shard := range shards {
				jn.Metrics.Merge(&shard.mets[si])
			}
		}
		seGroup := make([][]vecObserver, w)
		for wi, shard := range shards {
			seGroup[wi] = shard.stages[si].seObs
		}
		if err := mergeVecShards(seGroup); err != nil {
			return nil, err
		}
		if st.needLeftMiss {
			missCols := make([][]int64, st.width)
			missN := 0
			for _, shard := range shards {
				missN += shard.stages[si].missN
			}
			for c := 0; c < st.width; c++ {
				missCols[c] = make([]int64, 0, missN)
				for _, shard := range shards {
					missCols[c] = append(missCols[c], shard.stages[si].missCols[c]...)
				}
			}
			miss := &batch.Batch{Cols: missCols, N: missN}
			for _, t := range st.leftSingles {
				v.col.collectVec(t, miss)
			}
			for _, aj := range st.leftAux {
				v.col.collectAux(aj, miss, v.inputs[aj.Partner], v.arena)
			}
			if jn.RejectLink != "" {
				v.out.materialized[jn.RejectLink] = miss.Table("reject", jn.Left.Attrs)
			}
		}
		if jn.RightReject != nil {
			marks := shards[0].stages[si].marks
			for _, shard := range shards[1:] {
				for r, m := range shard.stages[si].marks {
					if m {
						marks[r] = true
					}
				}
			}
			missSel := v.arena.Int32(st.right.Rows())
			nMiss := 0
			sweep := func(ri int32) {
				if !marks[ri] {
					missSel[nMiss] = ri
					nMiss++
				}
			}
			if st.right.Sel != nil {
				for _, ri := range st.right.Sel {
					sweep(ri)
				}
			} else {
				for ri := 0; ri < st.right.N; ri++ {
					sweep(int32(ri))
				}
			}
			miss := &batch.Batch{Cols: st.right.Cols, N: st.right.N, Sel: missSel[:nMiss]}
			for _, t := range st.rightSingles {
				v.col.collectVec(t, miss)
			}
			for _, aj := range st.rightAux {
				v.col.collectAux(aj, miss, v.inputs[aj.Partner], v.arena)
			}
		}
	}
	return &batch.Batch{Cols: cat, N: total}, nil
}
