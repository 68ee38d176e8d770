package engine

import (
	"github.com/essential-stats/etlopt/internal/batch"
	"github.com/essential-stats/etlopt/internal/physical"
	"github.com/essential-stats/etlopt/internal/stats"
)

// Whole-batch tap collection: one statistic from one complete batch, for the
// points where the interpreters hold a node's entire output (every batch
// node; the streaming engine's sequential chains, top operators and merged
// miss sets). The store is write-once and a rejected value marks the
// statistic degraded instead of failing the run. Counts, distinct sets and
// histogram frequencies are exact, so the recorded values are bit-identical
// to the reference evaluator's.

// collectVec updates one tap's statistic from a whole batch. The store is
// write-once per statistic, so collection stays idempotent if a plan
// surfaces the same target twice.
func (c *collector) collectVec(tap physical.Tap, b *batch.Batch) {
	if c == nil || c.store.Has(tap.Stat) {
		return
	}
	switch tap.Stat.Kind {
	case stats.Card:
		if err := c.store.PutScalarOnce(tap.Stat, int64(b.Rows())); err != nil {
			c.markFailed(tap.Stat, err)
		}
	case stats.Distinct:
		var n int64
		if len(tap.Cols) == 1 {
			// Single-attribute distinct (the common case): hash the values
			// directly, no key encoding.
			col := b.Cols[tap.Cols[0]]
			seen := make(map[int64]struct{})
			if b.Sel != nil {
				for _, ri := range b.Sel {
					seen[col[ri]] = struct{}{}
				}
			} else {
				for ri := 0; ri < b.N; ri++ {
					seen[col[ri]] = struct{}{}
				}
			}
			n = int64(len(seen))
		} else {
			seen := newKeySet()
			key := make([]int64, len(tap.Cols))
			gatherRow := func(ri int32) {
				for i, col := range tap.Cols {
					key[i] = b.Cols[col][ri]
				}
				seen.add(key)
			}
			if b.Sel != nil {
				for _, ri := range b.Sel {
					gatherRow(ri)
				}
			} else {
				for ri := 0; ri < b.N; ri++ {
					gatherRow(int32(ri))
				}
			}
			n = int64(seen.len())
		}
		if err := c.store.PutScalarOnce(tap.Stat, n); err != nil {
			c.markFailed(tap.Stat, err)
		}
	case stats.Hist:
		h := stats.NewHistogram(tap.Stat.Attrs...)
		vals := make([]int64, len(tap.Cols))
		inc := func(ri int32) error {
			for i, col := range tap.Cols {
				vals[i] = b.Cols[col][ri]
			}
			return h.Inc(vals, 1)
		}
		if b.Sel != nil {
			for _, ri := range b.Sel {
				if err := inc(ri); err != nil {
					c.markFailed(tap.Stat, err)
					return
				}
			}
		} else {
			for ri := 0; ri < b.N; ri++ {
				if err := inc(int32(ri)); err != nil {
					c.markFailed(tap.Stat, err)
					return
				}
			}
		}
		if err := c.store.PutHistOnce(tap.Stat, h); err != nil {
			c.markFailed(tap.Stat, err)
		}
	case stats.HLLDistinct:
		h := stats.NewHLL(stats.DefaultHLLP)
		if len(tap.Cols) == 1 {
			col := b.Cols[tap.Cols[0]]
			if b.Sel != nil {
				for _, ri := range b.Sel {
					h.Add(col[ri])
				}
			} else {
				for ri := 0; ri < b.N; ri++ {
					h.Add(col[ri])
				}
			}
		} else {
			vals := make([]int64, len(tap.Cols))
			add := func(ri int32) {
				for i, col := range tap.Cols {
					vals[i] = b.Cols[col][ri]
				}
				h.Add(vals...)
			}
			if b.Sel != nil {
				for _, ri := range b.Sel {
					add(ri)
				}
			} else {
				for ri := 0; ri < b.N; ri++ {
					add(int32(ri))
				}
			}
		}
		if err := c.store.PutHLLOnce(tap.Stat, h); err != nil {
			c.markFailed(tap.Stat, err)
		}
	case stats.CMHist:
		cm := stats.NewCMH(tap.Spec, stats.DefaultCMDepth, stats.DefaultCMWidth)
		col := b.Cols[tap.Cols[0]]
		if b.Sel != nil {
			for _, ri := range b.Sel {
				cm.Observe(col[ri])
			}
		} else {
			for ri := 0; ri < b.N; ri++ {
				cm.Observe(col[ri])
			}
		}
		if err := c.store.PutCMOnce(tap.Stat, cm); err != nil {
			c.markFailed(tap.Stat, err)
		}
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
	probe := func(mi int32) {
		for r := ix.First(missCol[mi]); r >= 0; r = ix.Next(r) {
			midx = append(midx, mi)
			pidx = append(pidx, r)
		}
	}
	if misses.Sel != nil {
		for _, mi := range misses.Sel {
			probe(mi)
		}
	} else {
		for mi := 0; mi < misses.N; mi++ {
			probe(int32(mi))
		}
	}
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
