package engine

import (
	"sort"
	"sync"

	"github.com/essential-stats/etlopt/internal/stats"
)

// collector records compiled taps into a statistic store. All routing —
// which statistic observes which operator output, with which physical
// columns — was decided by the physical-plan compiler; the collector only
// folds batches into scalars and histograms (collectVec and
// collectAux in vec_taps.go, the observers in vec_obs.go). A nil
// *collector is valid and collects nothing (uninstrumented runs).
//
// Statistics whose observation fails permanently (an injected permanent tap
// fault, or a store/histogram rejection) are recorded in failed instead of
// aborting the run: the block completes without them and the caller sees
// them as Result.Degraded.
type collector struct {
	store *stats.Store

	mu     sync.Mutex
	failed map[stats.Key]FailedStat
}

func newCollector() *collector { return &collector{store: stats.NewStore()} }

// markFailed records a statistic as permanently unobservable this run.
// The first error per statistic wins (later duplicates are the same fault
// surfacing at another execution point).
func (c *collector) markFailed(s stats.Stat, err error) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.failed == nil {
		c.failed = make(map[stats.Key]FailedStat)
	}
	if _, ok := c.failed[s.Key()]; !ok {
		c.failed[s.Key()] = FailedStat{Stat: s, Err: err}
	}
}

// failedStats returns the degraded statistics in deterministic (canonical
// key) order.
func (c *collector) failedStats() []FailedStat {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.failed) == 0 {
		return nil
	}
	out := make([]FailedStat, 0, len(c.failed))
	for _, f := range c.failed {
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool {
		return stats.KeyLess(out[i].Stat.Key(), out[j].Stat.Key())
	})
	return out
}
