package engine

import (
	"github.com/essential-stats/etlopt/internal/batch"
	"github.com/essential-stats/etlopt/internal/physical"
	"github.com/essential-stats/etlopt/internal/stats"
)

// vecObserver is a batch-at-a-time statistic handler: observeVec folds one
// batch in, finish records the completed statistic into the store (a store
// rejection marks the statistic degraded on the collector rather than
// failing the block — by then the data work is done).
type vecObserver interface {
	observeVec(*batch.Batch)
	finish()
}

// eachLive calls f with the index of every live row of b, in order. The
// single-column observers keep their own loops: they hash a value per row
// and nothing else, so a call per row would show.
func eachLive(b *batch.Batch, f func(ri int32)) {
	if b.Sel != nil {
		for _, ri := range b.Sel {
			f(ri)
		}
		return
	}
	for ri := 0; ri < b.N; ri++ {
		f(int32(ri))
	}
}

// readCols returns b's columns cols as dense vectors, gathering the late
// ones (Batch.Col).
func readCols(b *batch.Batch, cols []int) [][]int64 {
	out := make([][]int64, len(cols))
	for i, c := range cols {
		out[i] = b.Col(c)
	}
	return out
}

// vecCardObserver counts live rows.
type vecCardObserver struct {
	col  *collector
	stat stats.Stat
	n    int64
}

func (c *vecCardObserver) observeVec(b *batch.Batch) { c.n += int64(b.Rows()) }
func (c *vecCardObserver) finish() {
	if err := c.col.store.Put(&stats.Value{Stat: c.stat, Scalar: c.n}); err != nil {
		c.col.markFailed(c.stat, err)
	}
}

// vecHistObserver builds an exact frequency histogram.
type vecHistObserver struct {
	col  *collector
	stat stats.Stat
	cols []int
	h    *stats.Histogram
	vals []int64
	err  error
}

func (h *vecHistObserver) observeVec(b *batch.Batch) {
	cols := readCols(b, h.cols)
	eachLive(b, func(ri int32) {
		for i, col := range cols {
			h.vals[i] = col[ri]
		}
		if err := h.h.Inc(h.vals, 1); err != nil && h.err == nil {
			h.err = err
		}
	})
}
func (h *vecHistObserver) finish() {
	if h.err != nil {
		h.col.markFailed(h.stat, h.err)
		return
	}
	if err := h.col.store.Put(&stats.Value{Stat: h.stat, Hist: h.h}); err != nil {
		h.col.markFailed(h.stat, err)
	}
}

// vecDistinctObserver counts distinct combinations in a keySet sized for
// the one batch it is fed.
type vecDistinctObserver struct {
	col  *collector
	stat stats.Stat
	cols []int
	set  keySet
	vals []int64
}

func (d *vecDistinctObserver) observeVec(b *batch.Batch) {
	cols := readCols(b, d.cols)
	eachLive(b, func(ri int32) {
		for i, col := range cols {
			d.vals[i] = col[ri]
		}
		d.set.add(d.vals)
	})
}
func (d *vecDistinctObserver) finish() {
	if err := d.col.store.Put(&stats.Value{Stat: d.stat, Scalar: int64(d.set.len())}); err != nil {
		d.col.markFailed(d.stat, err)
	}
}

// newVecObserver builds the batch handler of one compiled tap — the one way
// a batch is folded into a statistic — for a batch of at most rows live
// rows; scratch sets come from the arena. A kind without a handler yields
// nil.
func newVecObserver(col *collector, t physical.Tap, rows int, a *batch.Arena) vecObserver {
	switch t.Stat.Kind {
	case stats.Card:
		return &vecCardObserver{col: col, stat: t.Stat}
	case stats.Hist:
		return &vecHistObserver{
			col: col, stat: t.Stat, cols: t.Cols,
			h: stats.NewHistogram(t.Stat.Attrs...), vals: make([]int64, len(t.Cols)),
		}
	case stats.Distinct:
		return &vecDistinctObserver{
			col: col, stat: t.Stat, cols: t.Cols,
			set: newKeySet(len(t.Cols), rows, a), vals: make([]int64, len(t.Cols)),
		}
	}
	return nil
}
