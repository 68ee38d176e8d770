package estimate

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"github.com/essential-stats/etlopt/internal/css"
	"github.com/essential-stats/etlopt/internal/stats"
)

// Estimate feedback closes the loop the paper leaves open: after an
// instrumented run the engine knows every materialized sub-expression's
// *actual* cardinality, and the estimator can derive the same cardinality
// from the selected statistics set. Comparing the two per SE — the q-error
// lens of the cardinality-estimation literature — tells an operator which
// derivation rules held up on this workload, and by how much.

// SEReport compares one statistic target's actual cardinality against the
// estimate derived from the selected statistics.
type SEReport struct {
	// Block is the owning optimizable block.
	Block int `json:"block"`
	// Target identifies the SE or chain point.
	Target stats.Target `json:"-"`
	// Label renders the target with the block's input names.
	Label string `json:"label"`
	// Actual is the cardinality the engine measured.
	Actual int64 `json:"actual"`
	// Estimate is the derived cardinality (0 when not derivable).
	Estimate int64 `json:"estimate"`
	// Rule is the root rule of the derivation ("observed" for direct store
	// hits; empty when not derivable).
	Rule string `json:"rule,omitempty"`
	// QError is max(actual/estimate, estimate/actual) — 1 means exact,
	// +Inf when exactly one side is zero.
	QError float64 `json:"qerror,omitempty"`
	// Derivable reports whether the estimator could derive the target
	// from the selected statistics at all.
	Derivable bool `json:"derivable"`
	// Vacuous marks a derivable target whose actual and estimate are both
	// zero. The q-error is 1 by definition, but an empty SE whose estimate
	// agrees by coincidence tests nothing about the derivation, so vacuous
	// targets are excluded from the q-error aggregates and the calibration.
	Vacuous bool `json:"vacuous,omitempty"`
}

// RuleAccuracy aggregates q-errors per root derivation rule, surfacing
// which of the paper's rule families (S/P/J/G/U/I, including the
// union–division J4/J5 paths) were accurate on this workload.
type RuleAccuracy struct {
	Rule  string  `json:"rule"`
	Count int     `json:"count"`
	MaxQ  float64 `json:"maxQ"`
	MeanQ float64 `json:"meanQ"`
}

// Feedback is the estimate-feedback report of one instrumented run.
type Feedback struct {
	// SEs lists the per-target comparisons in deterministic order (block,
	// then input set, then chain depth).
	SEs []SEReport `json:"ses"`
	// Rules aggregates accuracy per root rule, sorted by rule name.
	Rules []RuleAccuracy `json:"rules"`
	// Derivable / Total count targets the estimator could / should derive.
	Derivable int `json:"derivable"`
	Total     int `json:"total"`
	// MaxQ and MeanQ summarize the finite q-errors of derivable,
	// non-vacuous targets (1 when every derivation was exact; 0 when no
	// target produced usable evidence).
	MaxQ  float64 `json:"maxQ"`
	MeanQ float64 `json:"meanQ"`
	// P90Q is the 90th-percentile finite q-error of derivable, non-vacuous
	// targets (nearest-rank; 0 when there are none): the typical
	// inaccuracy, which one outlying derivation cannot move the way it
	// moves MaxQ.
	P90Q float64 `json:"p90q,omitempty"`
	// Unbounded counts derivable targets with an infinite q-error (one
	// side zero, the other not).
	Unbounded int `json:"unbounded"`
	// UnboundedEmpty counts the unbounded targets whose actual was zero:
	// the SE was empty at this scale and the estimate merely over-predicted
	// a few rows — noise on tiny inputs, unlike a genuinely broken
	// derivation (actual > 0, estimate 0), which the rest of Unbounded
	// counts.
	UnboundedEmpty int `json:"unboundedEmpty,omitempty"`
	// Vacuous counts derivable targets where actual and estimate are both
	// zero (see SEReport.Vacuous).
	Vacuous int `json:"vacuous,omitempty"`
}

// BuildFeedback compares each actual cardinality from an instrumented run
// against the estimate derived from the selected statistics. SE targets
// that are not derivable are reported as such; underivable chain points are
// skipped silently (inner chain points are only in the statistic universe
// when a rule needs them, so their absence is expected, not a failure).
// Vacuous and unbounded targets are counted apart and left out of MaxQ,
// MeanQ and P90Q.
func BuildFeedback(res *css.Result, est *Estimator, actuals map[stats.Target]int64) *Feedback {
	targets := make([]stats.Target, 0, len(actuals))
	for t := range actuals {
		targets = append(targets, t)
	}
	sort.Slice(targets, func(i, j int) bool {
		a, b := targets[i], targets[j]
		if a.Block != b.Block {
			return a.Block < b.Block
		}
		if a.Set != b.Set {
			return a.Set < b.Set
		}
		if a.Depth != b.Depth {
			return a.Depth < b.Depth
		}
		if a.RejectInput != b.RejectInput {
			return a.RejectInput < b.RejectInput
		}
		return a.RejectEdge < b.RejectEdge
	})

	f := &Feedback{}
	var qSum float64
	var finite []float64
	byRule := make(map[string][]float64)
	for _, t := range targets {
		var blk = res.Analysis.Blocks[t.Block]
		rep := SEReport{
			Block:  t.Block,
			Target: t,
			Label:  t.Label(blk),
			Actual: actuals[t],
		}
		ex, err := est.Explain(stats.NewCard(t))
		if err != nil {
			if t.IsChainPoint() {
				continue
			}
			f.SEs = append(f.SEs, rep)
			f.Total++
			continue
		}
		rep.Derivable = true
		rep.Estimate = ex.Value.Scalar
		rep.Rule = ex.Rule
		rep.QError = qError(rep.Actual, rep.Estimate)
		rep.Vacuous = rep.Actual == 0 && rep.Estimate == 0
		f.SEs = append(f.SEs, rep)
		f.Total++
		f.Derivable++
		switch {
		case rep.Vacuous:
			f.Vacuous++
		case math.IsInf(rep.QError, 1):
			f.Unbounded++
			if rep.Actual == 0 {
				f.UnboundedEmpty++
			}
		default:
			qSum += rep.QError
			finite = append(finite, rep.QError)
			if rep.QError > f.MaxQ {
				f.MaxQ = rep.QError
			}
		}
		byRule[rep.Rule] = append(byRule[rep.Rule], rep.QError)
	}
	if len(finite) > 0 {
		f.MeanQ = qSum / float64(len(finite))
		sort.Float64s(finite)
		f.P90Q = quantileOf(finite, calibrationQuantile)
	}

	rules := make([]string, 0, len(byRule))
	for r := range byRule {
		rules = append(rules, r)
	}
	sort.Strings(rules)
	for _, r := range rules {
		ra := RuleAccuracy{Rule: r}
		var sum float64
		var n int
		for _, q := range byRule[r] {
			ra.Count++
			if q > ra.MaxQ {
				ra.MaxQ = q
			}
			if !math.IsInf(q, 1) {
				sum += q
				n++
			}
		}
		if n > 0 {
			ra.MeanQ = sum / float64(n)
		}
		f.Rules = append(f.Rules, ra)
	}
	return f
}

// qError is the standard cardinality-estimation accuracy measure:
// max(act/est, est/act), 1 for an exact estimate, +Inf when exactly one of
// the two is zero.
func qError(act, est int64) float64 {
	if act == est {
		return 1
	}
	if act == 0 || est == 0 {
		return math.Inf(1)
	}
	a, b := math.Abs(float64(act)), math.Abs(float64(est))
	return math.Max(a/b, b/a)
}

// calibrationQuantile is the finite q-error quantile P90Q reports: high
// enough to capture systematic inaccuracy, but not the maximum, so one
// outlying derivation does not set it.
const calibrationQuantile = 0.9

// quantileOf returns the p-quantile of ascending-sorted qs by the
// nearest-rank method (deterministic, no interpolation).
func quantileOf(qs []float64, p float64) float64 {
	if len(qs) == 0 {
		return 0
	}
	idx := int(math.Ceil(p*float64(len(qs)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(qs) {
		idx = len(qs) - 1
	}
	return qs[idx]
}

// Render formats the report as a deterministic fixed-order text table (no
// timing, no map iteration).
func (f *Feedback) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "estimate feedback: %d/%d targets derivable", f.Derivable, f.Total)
	if f.Derivable > 0 {
		fmt.Fprintf(&sb, ", max q-error %s, mean %s", fmtQ(f.MaxQ), fmtQ(f.MeanQ))
		if f.P90Q > 0 {
			fmt.Fprintf(&sb, ", p90 %s", fmtQ(f.P90Q))
		}
		if f.Unbounded > 0 {
			fmt.Fprintf(&sb, ", %d unbounded", f.Unbounded)
			if f.UnboundedEmpty > 0 {
				fmt.Fprintf(&sb, " (%d on empty SEs)", f.UnboundedEmpty)
			}
		}
		if f.Vacuous > 0 {
			fmt.Fprintf(&sb, ", %d vacuous", f.Vacuous)
		}
	}
	sb.WriteString("\n")
	for _, r := range f.SEs {
		if !r.Derivable {
			fmt.Fprintf(&sb, "  blk%d %-28s actual %-10d not derivable\n", r.Block, r.Label, r.Actual)
			continue
		}
		fmt.Fprintf(&sb, "  blk%d %-28s actual %-10d est %-10d q %-8s %s\n",
			r.Block, r.Label, r.Actual, r.Estimate, fmtQ(r.QError), r.Rule)
	}
	if len(f.Rules) > 0 {
		sb.WriteString("  rule accuracy:\n")
		for _, ra := range f.Rules {
			fmt.Fprintf(&sb, "    %-10s n=%-4d maxQ %-8s meanQ %s\n", ra.Rule, ra.Count, fmtQ(ra.MaxQ), fmtQ(ra.MeanQ))
		}
	}
	return sb.String()
}

func fmtQ(q float64) string {
	if math.IsInf(q, 1) {
		return "inf"
	}
	return fmt.Sprintf("%.4g", q)
}
