package css

import "github.com/essential-stats/etlopt/internal/expr"

// classify sorts a statistic into observable or derived-only (the S_O of
// Section 5.1). A statistic is observable when the initial plan, suitably
// instrumented, produces the record-set it describes:
//
//   - every chain point of every input runs in every plan;
//   - a cooked SE is produced exactly when it appears in the initial join
//     tree;
//   - a singleton reject set T̄t for join edge f is observable when the
//     initial plan joins {t} directly over f — adding an explicit reject
//     link there captures the rejected rows (Section 4.1.2); such
//     statistics are marked in NeedsRejectLink;
//   - a two-input reject variant T̄t ⋈ r is observable under the same
//     condition when r is a single block input directly joined to t: the
//     instrumented run executes the small auxiliary join of the reject
//     stream with r, which is how the paper observes |T̄1 ⋈ T2| with a
//     plain counter in rule J4;
//   - wider reject variants are derived from those via the join rules.
func classify(bc *blockCtx, s target) (observable, needsRejectLink bool) {
	switch {
	case s.isChainPoint():
		return true, false
	case s.isReject():
		t := int(s.rejIn)
		if !rejectObservable(bc, t, int(s.rejEdge)) {
			return false, false
		}
		rest := s.set.Without(expr.NewSet(t))
		ok := rest.Empty() || rest.Len() == 1 && directEdge(bc, t, rest.Lowest()) >= 0
		return ok, ok
	default:
		return bc.sp.Initial[s.set], false
	}
}

// directEdge returns the index of a join edge directly connecting inputs a
// and b, or -1.
func directEdge(bc *blockCtx, a, b int) int {
	for j, e := range bc.blk.Joins {
		if e.LeftInput == a && e.RightInput == b || e.LeftInput == b && e.RightInput == a {
			return j
		}
	}
	return -1
}

// rejectObservable reports whether the initial plan contains a join over
// edge f with one side exactly {t}: the place where a reject link can
// capture T̄t.
func rejectObservable(bc *blockCtx, t, f int) bool {
	single := expr.NewSet(t)
	for _, p := range bc.sp.InitialTree {
		if p.Edge != f {
			continue
		}
		if p.Left == single || p.Right == single {
			return true
		}
	}
	return false
}
