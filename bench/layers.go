package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"time"

	"github.com/essential-stats/etlopt/internal/batch"
	"github.com/essential-stats/etlopt/internal/core"
	"github.com/essential-stats/etlopt/internal/costmodel"
	"github.com/essential-stats/etlopt/internal/css"
	"github.com/essential-stats/etlopt/internal/data"
	"github.com/essential-stats/etlopt/internal/engine"
	"github.com/essential-stats/etlopt/internal/estimate"
	"github.com/essential-stats/etlopt/internal/expr"
	"github.com/essential-stats/etlopt/internal/optimizer"
	"github.com/essential-stats/etlopt/internal/physical"
	"github.com/essential-stats/etlopt/internal/selector"
	"github.com/essential-stats/etlopt/internal/stats"
	"github.com/essential-stats/etlopt/internal/workflow"
)

// This file is the traced run: the ops below exist only under -trace 1.
// They call each layer's public function from here, under a span named
// <module>.<Func>; end-to-end numbers never come from them.

// Span names. A layer's per-layer metric is the floor of its span's self
// time, summed over the workflows that record it.
const (
	spanClient   = "client.request"
	spanHandler  = "serve.handler"
	spanWorker   = "serve.worker"
	spanRunBlock = "serve.RunBlock"

	spanAnalyze   = "workflow.Analyze"
	spanGenerate  = "css.Generate"
	spanUniverse  = "selector.NewUniverse"
	spanExact     = "selector.Exact"
	spanTapped    = "engine.RunPlans(tapped)"
	spanEstimator = "estimate.New"
	spanOptimize  = "optimizer.Optimize"

	spanEnumerate = "expr.Enumerate"
	spanGreedy    = "selector.Greedy"
	spanCompile   = "physical.Compile"
	spanPlain     = "engine.RunPlans(plain)"
	spanStream    = "engine.RunPlans(stream)"
	spanRequired  = "estimate.Required"
	spanWrite     = "stats.WriteTo"
	spanRead      = "stats.ReadStore"
	spanDrift     = "stats.MeasureDrift"
	spanEncode    = "data.WriteTable"
	spanDecode    = "data.ReadTable"
	spanJoin      = "batch.JoinIndex"
	spanSelect    = "batch.SelectPred"
	spanPut       = "serve.Catalog.Put"
)

// cycleSpans are the layers of the step-wise cycle, in core.RunCtx's order.
var cycleSpans = []string{spanAnalyze, spanGenerate, spanUniverse, spanExact, spanTapped, spanEstimator, spanOptimize}

// wfLayers is what the traced run keeps per cycle workflow: the latest
// step-wise products, which the per-layer op reuses, and the counts.
type wfLayers struct {
	an  *workflow.Analysis
	res *css.Result
	u   *selector.Universe
	sel *selector.Selection
	run *engine.Result

	seCount, cssCount, universe, nodes, taps, changed int
	cssAllocMB, cycleAllocMB, cycleAllocs             float64
	qerrMax                                           float64
	storeBytes                                        int
	plainRows                                         int64
}

// stepwise runs one cycle layer by layer, in core.RunCtx's order, and
// returns its total. Each call is what core.Run makes, so the result must
// equal core.Run's: same Selection.Memory, plan trees, Rows and statistics.
func (e *env) stepwise(rc *roundCtx, key string, st *wfState) (time.Duration, error) {
	l := st.lay
	var total time.Duration
	step := func(name string, f func() error) error {
		d, err := e.timed(rc, name, key, f)
		total += d
		return err
	}
	err := step(spanAnalyze, func() (err error) {
		l.an, err = workflow.Analyze(st.w.Graph, st.w.Catalog)
		return err
	})
	if err != nil {
		return 0, err
	}
	if err = step(spanGenerate, func() (err error) {
		l.res, err = css.Generate(l.an, st.cfg.CSS)
		return err
	}); err != nil {
		return 0, err
	}
	if err = step(spanUniverse, func() (err error) {
		coster := costmodel.NewMemoryCoster(l.res, l.an.Cat)
		l.u, err = selector.NewUniverseOpts(l.res, coster, selector.UniverseOptions{})
		return err
	}); err != nil {
		return 0, err
	}
	if err = step(spanExact, func() (err error) {
		l.sel, err = selector.SelectUniverse(l.u, selector.Options{Method: st.cfg.Method})
		return err
	}); err != nil {
		return 0, err
	}
	if err = step(spanTapped, func() (err error) {
		eng := engine.New(l.an, st.db, nil)
		eng.MaxRows = st.cfg.MaxRows
		l.run, err = eng.RunPlansCtx(context.Background(), nil, l.res, l.sel.Observe)
		return err
	}); err != nil {
		return 0, err
	}
	var est *estimate.Estimator
	if err = step(spanEstimator, func() error {
		est = estimate.New(l.res, l.run.Observed)
		return nil
	}); err != nil {
		return 0, err
	}
	var plans *optimizer.Result
	if err = step(spanOptimize, func() (err error) {
		plans, err = optimizer.OptimizeOpts(l.res, est, st.cfg.CostModel, optimizer.Options{})
		return err
	}); err != nil {
		return 0, err
	}
	l.changed = 0
	for _, blk := range l.an.Blocks {
		if p := plans.Plans[blk.Index]; p != nil && p.Tree != nil && blk.Initial != nil && p.Tree.Render(blk) != blk.Initial.Render(blk) {
			l.changed++
		}
	}
	return total, st.checkParts(l.sel.Memory, l.run, planString(l.an, plans))
}

// layerOps returns the traced ops of one cycle workflow: the step-wise
// cycle, and the layers core.Run does not call directly or calls inside
// another layer (enumeration inside css.Generate, compilation inside the
// engine), each over the same inputs.
func (e *env) layerOps(st *wfState) ([]*op, error) {
	st.lay = &wfLayers{}
	l := st.lay
	if err := e.measureOnce(st); err != nil {
		return nil, err
	}
	stepKey, layKey := st.key()+"/stepwise", st.key()+"/layers"
	stepwise := &op{key: stepKey, group: "stepwise", run: func(rc *roundCtx) (time.Duration, error) {
		return e.stepwise(rc, stepKey, st)
	}}
	layers := &op{key: layKey, group: "layers", run: func(rc *roundCtx) (time.Duration, error) {
		var total time.Duration
		step := func(name string, f func() error) error {
			d, err := e.timed(rc, name, layKey, f)
			total += d
			return err
		}
		ctx := context.Background()
		if err := step(spanEnumerate, func() error {
			for _, blk := range l.an.Blocks {
				if _, err := expr.Enumerate(blk); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return 0, err
		}
		if err := step(spanGreedy, func() error {
			_, err := selector.Greedy(l.u)
			return err
		}); err != nil {
			return 0, err
		}
		if err := step(spanCompile, func() error {
			p, err := physical.Compile(l.an, st.db, physical.Options{Res: l.res, Observe: l.sel.Observe})
			if err != nil {
				return err
			}
			l.nodes, l.taps = 0, p.NumTaps()
			for _, bp := range p.Blocks {
				l.nodes += len(bp.Nodes)
			}
			return nil
		}); err != nil {
			return 0, err
		}
		if err := step(spanPlain, func() error {
			eng := engine.New(l.an, st.db, nil)
			eng.MaxRows = st.cfg.MaxRows
			out, err := eng.RunPlansCtx(ctx, nil, nil, nil)
			if err == nil {
				l.plainRows = out.Rows
			}
			return err
		}); err != nil {
			return 0, err
		}
		var streamed *engine.Result
		if err := step(spanStream, func() (err error) {
			eng := engine.NewStream(l.an, st.db, nil)
			eng.MaxRows, eng.Workers = st.cfg.MaxRows, 2
			streamed, err = eng.RunPlansCtx(ctx, nil, l.res, l.sel.Observe)
			return err
		}); err != nil {
			return 0, err
		}
		if streamed.Rows != st.ref.rows {
			return 0, fmt.Errorf("streaming Rows = %d, batch %d", streamed.Rows, st.ref.rows)
		}
		store := l.run.Observed
		if err := step(spanRequired, func() error {
			est := estimate.New(l.res, store)
			for _, s := range l.res.Required {
				if _, err := est.Value(s); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return 0, err
		}
		var buf bytes.Buffer
		if err := step(spanWrite, func() error {
			_, err := store.WriteTo(&buf)
			return err
		}); err != nil {
			return 0, err
		}
		l.storeBytes = buf.Len()
		var back *stats.Store
		if err := step(spanRead, func() (err error) {
			back, err = stats.ReadStore(bytes.NewReader(buf.Bytes()))
			return err
		}); err != nil {
			return 0, err
		}
		var drift stats.Drift
		if err := step(spanDrift, func() error {
			drift = stats.MeasureDrift(store, back)
			return nil
		}); err != nil {
			return 0, err
		}
		if drift.MaxRel != 0 || drift.OnlyOld != 0 || drift.OnlyNew != 0 {
			return 0, fmt.Errorf("store drifted across a persist round trip: %+v", drift)
		}
		return total, nil
	}}
	return []*op{stepwise, layers}, nil
}

// measureOnce takes the numbers that need no rounds: allocation per cycle
// and per css.Generate, the counts, and the q-error of a metrics-on run
// (with exact statistics every derivable SE must read 1).
func (e *env) measureOnce(st *wfState) error {
	l := st.lay
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cy, err := core.Run(st.w.Graph, st.w.Catalog, st.db, st.cfg)
	runtime.ReadMemStats(&m1)
	if err != nil {
		return err
	}
	l.cycleAllocMB = float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6
	l.cycleAllocs = float64(m1.Mallocs - m0.Mallocs)
	runtime.ReadMemStats(&m0)
	res, err := css.Generate(cy.Analysis, st.cfg.CSS)
	runtime.ReadMemStats(&m1)
	if err != nil {
		return err
	}
	l.cssAllocMB = float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6
	l.seCount, l.cssCount = res.NumSEs(), res.NumCSS()
	cfg := st.cfg
	cfg.CollectMetrics = true
	if cy, err = core.Run(st.w.Graph, st.w.Catalog, st.db, cfg); err != nil {
		return err
	}
	l.qerrMax = cy.Feedback.MaxQ
	// The first step-wise cycle fills in the products the layers op reads.
	_, err = e.stepwise(&roundCtx{round: -e.o.warmups - 1, root: -1}, st.key()+"/stepwise", st)
	l.universe = len(l.u.Stats)
	return err
}

// wireOp times the table codec over the block outputs a distributed cycle
// of this workflow ships.
func (e *env) wireOp(st *wfState) *op {
	key := st.key() + "/wire"
	return &op{key: key, group: "wire", run: func(rc *roundCtx) (time.Duration, error) {
		var total time.Duration
		st.wireRows, st.wireBytes = 0, 0
		for _, t := range st.cy.Observed.BlockOut {
			var buf bytes.Buffer
			d, err := e.timed(rc, spanEncode, key, func() error { return data.WriteTable(&buf, t) })
			if err != nil {
				return 0, err
			}
			total += d
			var back *data.Table
			d, err = e.timed(rc, spanDecode, key, func() (err error) {
				back, err = data.ReadTable(bytes.NewReader(buf.Bytes()))
				return err
			})
			if err != nil {
				return 0, err
			}
			total += d
			if len(back.Rows) != len(t.Rows) {
				return 0, fmt.Errorf("codec round trip: %d rows, want %d", len(back.Rows), len(t.Rows))
			}
			st.wireRows += int64(len(t.Rows))
			st.wireBytes += int64(buf.Len())
		}
		return total, nil
	}}
}

// kernelOp times the public batch kernels over a fixed 400k-row column.
func (e *env) kernelOp() *op {
	col := make([]int64, refRows)
	x := uint64(1)
	for i := range col {
		x = splitmix(x)
		col[i] = int64(x % (refRows / 2))
	}
	out := make([]int32, refRows)
	return &op{key: "all/kernels", group: "kernels", run: func(rc *roundCtx) (time.Duration, error) {
		var matches int
		dj, _ := e.timed(rc, spanJoin, "all/kernels", func() error {
			a := batch.GetArena()
			defer batch.PutArena(a)
			ix := batch.NewJoinIndex(col, nil, len(col), a)
			for _, v := range col {
				for r := ix.First(v); r >= 0; r = ix.Next(r) {
					matches++
				}
			}
			return nil
		})
		var kept int
		ds, _ := e.timed(rc, spanSelect, "all/kernels", func() error {
			kept = len(batch.SelectPred(col, nil, len(col), workflow.CmpLt, refRows/4, out))
			return nil
		})
		if matches < len(col) || kept == 0 || kept == len(col) {
			return 0, fmt.Errorf("kernels: %d matches, %d selected of %d", matches, kept, len(col))
		}
		return dj + ds, nil
	}}
}

// catalogPutOp times Catalog.Put directly, on a scratch catalog, with the
// same two streams the daemon's catalog alternates between.
func (e *env) catalogPutOp(sw *serveWF) *op {
	key := sw.name + "/catalog_put"
	n := 0
	return &op{key: key, group: "catalog_put", run: func(rc *roundCtx) (time.Duration, error) {
		n++
		return e.timed(rc, spanPut, key, func() error {
			_, _, _, err := e.sv.scratch.Put(sw.name, sw.parsed[n%2])
			return err
		})
	}}
}
