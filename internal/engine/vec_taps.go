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
// observer, built for that batch over the block's arena and fed once. The
// store is write-once per statistic, so collection stays idempotent if a
// plan surfaces the same target twice.
func (c *collector) collectVec(tap physical.Tap, b *batch.Batch, a *batch.Arena) {
	if c == nil || c.store.Has(tap.Stat) {
		return
	}
	if o := newVecObserver(c, tap, b.Rows(), a); o != nil {
		o.observeVec(b)
		o.finish()
	}
}

// collectAux runs one union–division auxiliary join (rule J4's counter) —
// the misses of one input joined with the registered partner's cooked batch
// — and feeds the statistic. The pairs are sized from the index's chain
// lengths before they are written, and the joined batch is those index
// vectors over the two inputs (batch.Join), so the counter gathers only the
// columns its tap reads. The joined schema is miss columns then partner
// columns, the order the compiler bound aj.Attrs in, so aj.Cols indexes land
// on the same attributes.
func (c *collector) collectAux(aj *physical.AuxJoin, misses, partner *batch.Batch, a *batch.Arena) {
	if c == nil || c.store.Has(aj.Stat) {
		return
	}
	ix := batch.NewJoinIndex(partner.Col(aj.PartnerCol), partner.Sel, partner.N, a)
	missCol := misses.Col(aj.MissCol)
	m := 0
	eachLive(misses, func(mi int32) {
		if r := ix.First(missCol[mi]); r >= 0 {
			m += ix.ChainLen(r)
		}
	})
	midx, pidx := a.Int32(m), a.Int32(m)
	k := 0
	eachLive(misses, func(mi int32) {
		for r := ix.First(missCol[mi]); r >= 0; r = ix.Next(r) {
			midx[k], pidx[k] = mi, r
			k++
		}
	})
	c.collectVec(physical.Tap{Stat: aj.Stat, Cols: aj.Cols}, batch.Join(misses, partner, midx, pidx, a), a)
}
