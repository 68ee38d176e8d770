package selector

import (
	"errors"
	"math"

	"github.com/essential-stats/etlopt/internal/stats"
)

// ErrNoCover reports that no observation set can cover the required
// statistics once the failed ones are excluded: the covering structure has
// no alternate CSS left, and the caller must fall back to the
// pay-as-you-go baseline.
var ErrNoCover = errors.New("selector: no covering observation set avoids the failed statistics")

// Reselect picks the next-cheapest covering selection after observation
// failures, realizing the degradation ladder's middle rung: statistics in
// failed can no longer be observed (their taps fail permanently every run),
// while statistics in have were already observed successfully and are
// available for free. The returned selection covers every required
// statistic without observing any failed one; statistics already in have
// may appear in Selection.Observe (they cost nothing), so callers should
// re-observe only the selection minus have.
//
// ErrNoCover is returned when the covering structure cannot route around
// the failures at all.
func Reselect(u *Universe, have, failed []stats.Stat, opt Options) (*Selection, error) {
	v := u.excluding(failed, have)
	// Feasibility first: with everything still-observable observed, do the
	// required statistics close? If not, no solver can succeed.
	if !v.covers(v.derivable) {
		return nil, ErrNoCover
	}
	sel, err := SelectUniverse(v, opt)
	if err != nil {
		if errors.Is(err, errNoSolution) {
			return nil, ErrNoCover
		}
		return nil, err
	}
	return sel, nil
}

// excluding clones the universe with the failed statistics banned from
// observation (unobservable, infinite cost — they may still be *derived*
// through their candidate sets) and the already-held statistics free
// (observable at zero cost, so every solver keeps them in the base set).
func (u *Universe) excluding(failed, have []stats.Stat) *Universe {
	v := *u
	v.Observable = append([]bool(nil), u.Observable...)
	v.Cost = append([]float64(nil), u.Cost...)
	// pruneUnderivable compacts the graph in place.
	v.cssOff = append([]int32(nil), u.cssOff...)
	v.inOff = append([]int32(nil), u.inOff...)
	v.inputs = append([]int32(nil), u.inputs...)
	for _, s := range have {
		if i, ok := v.Res.Lookup(s); ok {
			v.Observable[i] = true
			v.Cost[i] = 0
		}
	}
	// Bans win over haves: a statistic both held and failed (cannot happen
	// from the engine, which only fails what it never stored) stays banned.
	for _, s := range failed {
		if i, ok := v.Res.Lookup(s); ok {
			v.Observable[i] = false
			v.Cost[i] = math.Inf(1)
		}
	}
	v.pruneUnderivable()
	return &v
}
