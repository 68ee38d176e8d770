package main

import (
	"fmt"
	"time"

	"github.com/essential-stats/etlopt/internal/core"
	"github.com/essential-stats/etlopt/internal/engine"
)

// cycleOp is cycle_floor_s: one core.Run on the batch engine, analyze
// through optimize. The traced run reuses it as "distlocal", the local leg
// next to each distributed cycle.
func (e *env) cycleOp(st *wfState, group string) *op {
	key := st.key() + "/" + group
	return &op{key: key, group: group, run: func(rc *roundCtx) (time.Duration, error) {
		var cy *core.Cycle
		d, err := e.timed(rc, "core.Run", key, func() (err error) {
			cy, err = core.Run(st.w.Graph, st.w.Catalog, st.db, st.cfg)
			return err
		})
		if err != nil {
			return 0, err
		}
		st.cy = cy
		return d, st.check(cy)
	}}
}

// rerunOp is rerun_floor_s: the steady-state ETL run under the optimized
// plans, with no taps. Its sinks must equal the initial run's.
func (e *env) rerunOp(st *wfState) *op {
	key := st.key() + "/rerun"
	return &op{key: key, group: "rerun", reps: e.sp.RerunReps, run: func(rc *roundCtx) (time.Duration, error) {
		var out *engine.Result
		d, err := e.timed(rc, "core.RunOptimized", key, func() (err error) {
			out, err = st.cy.RunOptimized()
			return err
		})
		if err != nil {
			return 0, err
		}
		if out.Rows != st.ref.optRows {
			return 0, fmt.Errorf("Optimized.Rows = %d, reference %d", out.Rows, st.ref.optRows)
		}
		if got := sinkSig(out.Sinks); got != st.ref.sinks {
			return 0, fmt.Errorf("optimized sinks %s differ from the initial run's %s", got, st.ref.sinks)
		}
		return d, nil
	}}
}

// streamOp is stream_cycle_floor_s: the same cycle on the streaming engine
// with two workers. It must match the batch reference on Rows and on the
// observed statistics byte for byte.
func (e *env) streamOp(st *wfState) *op {
	key := st.key() + "/stream"
	cfg := st.cfg
	cfg.Streaming = true
	cfg.Workers = 2
	return &op{key: key, group: "stream", run: func(rc *roundCtx) (time.Duration, error) {
		var cy *core.Cycle
		d, err := e.timed(rc, "core.Run", key, func() (err error) {
			cy, err = core.Run(st.w.Graph, st.w.Catalog, st.db, cfg)
			return err
		})
		if err != nil {
			return 0, err
		}
		return d, st.check(cy)
	}}
}
