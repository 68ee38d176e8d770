package css

import "strconv"

// Rule identifies the derivation rule that produced a candidate statistics
// set (Tables 2 and 5 of the paper, plus this implementation's reject,
// boundary and metadata rules). css.Generate writes it, estimate evaluates
// by it; String is the name every rendering prints.
type Rule uint8

// The rules, in the order the estimator's dispatch table is indexed.
const (
	RuleJ1 Rule = iota // |L ⋈ R| from the join-column distributions
	RuleJ2             // a distribution of a join from one joint distribution per side
	RuleJ3             // J2 for the join attribute itself
	RuleJ4             // union–division: a cardinality
	RuleJ5             // union–division: a single-attribute distribution
	RuleR1             // a reject singleton, the anti-join complement of J1/J2
	RuleFK             // look-up join: the fact side's cardinality (Section 3.2.2)
	RuleS1             // |σ_a(T)| from H^a_T
	RuleS2             // H^b of a selection from H^{a∪b} of its input
	RuleP1             // projection keeps the cardinality
	RuleP2             // projection keeps distributions over retained columns
	RuleU1             // transform keeps the cardinality
	RuleU2             // transform keeps distributions it does not derive
	RuleB0             // pass-through at a block boundary
	RuleG1             // |G(T,a)| = |a_T|
	RuleG2             // distributions over grouping keys, one count per group
	RuleD1             // a distinct count is its histogram's bucket count
	RuleI1             // |T| from any histogram on T
	RuleI2             // H^a_T from any H^{a∪b}_T
	// NumRules is the number of declared rules.
	NumRules
)

var ruleNames = [NumRules]string{
	RuleJ1: "J1", RuleJ2: "J2", RuleJ3: "J3", RuleJ4: "J4", RuleJ5: "J5",
	RuleR1: "R1", RuleFK: "FK",
	RuleS1: "S1", RuleS2: "S2",
	RuleP1: "P1", RuleP2: "P2", RuleU1: "U1", RuleU2: "U2",
	RuleB0: "B0", RuleG1: "G1", RuleG2: "G2",
	RuleD1: "D1", RuleI1: "I1", RuleI2: "I2",
}

func (r Rule) String() string {
	if r < NumRules {
		return ruleNames[r]
	}
	return "Rule(" + strconv.Itoa(int(r)) + ")"
}
