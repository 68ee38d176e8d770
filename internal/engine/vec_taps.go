package engine

import (
	"github.com/essential-stats/etlopt/internal/batch"
	"github.com/essential-stats/etlopt/internal/physical"
)

// Whole-batch tap collection: one statistic from one complete batch — the
// interpreter holds every node's entire output. The store is write-once and
// a rejected value marks the statistic degraded instead of failing the run.
// Counts, distinct sets and histogram frequencies are exact, so the
// recorded values are bit-identical to the reference evaluator's.

// collectVec updates one tap's statistic from a whole batch: the tap's
// observer, fed once. The store is write-once per statistic, so collection
// stays idempotent if a plan surfaces the same target twice.
func (c *collector) collectVec(tap physical.Tap, b *batch.Batch) {
	if c == nil || c.store.Has(tap.Stat) {
		return
	}
	if o := newVecObserver(c, tap); o != nil {
		o.observeVec(b)
		o.finish()
	}
}

// collectAux runs one union–division auxiliary join (rule J4's counter) —
// the misses of one input joined with the registered partner's cooked batch
// — and feeds the statistic. The joined batch's schema is miss columns then
// partner columns, the order the compiler bound aj.Attrs in, so aj.Cols
// indexes land on the same attributes.
func (c *collector) collectAux(aj *physical.AuxJoin, misses, partner *batch.Batch, a *batch.Arena) {
	if c == nil || c.store.Has(aj.Stat) {
		return
	}
	ix := batch.NewJoinIndex(partner.Cols[aj.PartnerCol], partner.Sel, partner.N, a)
	missCol := misses.Cols[aj.MissCol]
	var midx, pidx []int32
	eachLive(misses, func(mi int32) {
		for r := ix.First(missCol[mi]); r >= 0; r = ix.Next(r) {
			midx = append(midx, mi)
			pidx = append(pidx, r)
		}
	})
	m := len(midx)
	wM, wP := len(misses.Cols), len(partner.Cols)
	cols := make([][]int64, wM+wP)
	for col := 0; col < wM; col++ {
		cols[col] = a.Int64(m)
		batch.Gather(cols[col], misses.Cols[col], midx)
	}
	for col := 0; col < wP; col++ {
		cols[wM+col] = a.Int64(m)
		batch.Gather(cols[wM+col], partner.Cols[col], pidx)
	}
	c.collectVec(physical.Tap{Stat: aj.Stat, Cols: aj.Cols}, &batch.Batch{Cols: cols, N: m})
}
