// Package stats defines the statistic descriptors of the paper — relation
// cardinalities |T|, distinct counts |a_T| and attribute distributions
// (exact frequency histograms) H_T^a — together with the histogram algebra
// the candidate-statistics rules evaluate: dot products (rule J1), join
// projections (J2/J3), marginalization (I1/I2) and the bucket-wise multiply
// and divide of the union–division method (J4/J5).
package stats

import (
	"fmt"
	"strings"

	"github.com/essential-stats/etlopt/internal/expr"
	"github.com/essential-stats/etlopt/internal/workflow"
)

// Kind is the type of a statistic.
type Kind uint8

// Statistic kinds.
const (
	// Card is a sub-expression cardinality |T|.
	Card Kind = iota
	// Distinct is the number of distinct values |a_T| of an attribute set
	// in a sub-expression.
	Distinct
	// Hist is an exact frequency distribution H_T^a over an attribute set.
	Hist
)

// kindNames names the statistic kinds. A Card or Distinct value is a
// scalar, a Hist value a histogram.
var kindNames = [...]string{Card: "card", Distinct: "distinct", Hist: "hist"}

// valid reports whether the kind is one of the three; a kind byte beyond
// them is unknown (possibly from a future format version).
func (k Kind) valid() bool { return k <= Hist }

// String names the kind.
func (k Kind) String() string {
	if k.valid() {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Target identifies the relation a statistic describes. The common case is
// a (block, SE) pair. Two refinements serve specific rules:
//
//   - Depth ≥ 0 addresses a point inside a single input's pushed-down
//     operator chain: Depth d is the record-set after the first d chain
//     operators, with Depth 0 the raw source (or upstream block output).
//     The fully-cooked input — the SE itself — uses Depth -1.
//   - RejectInput/RejectEdge describe the union–division targets (J4/J5):
//     the SE with one input replaced by its reject rows with respect to a
//     join predicate (written T̄ᵢ in the paper).
type Target struct {
	// Block is the optimizable-block index the SE belongs to.
	Block int
	// Set is the SE's input bitset within the block.
	Set expr.Set
	// Depth addresses a chain point of a single-input SE; -1 means the
	// fully-cooked SE.
	Depth int
	// RejectInput is the input index whose reject rows stand in for the
	// input, or -1 for an ordinary SE.
	RejectInput int
	// RejectEdge indexes Block.Joins: the predicate defining the rejects.
	// -1 for ordinary SEs.
	RejectEdge int
}

// BlockSE returns an ordinary target for the given SE of the given block.
func BlockSE(block int, s expr.Set) Target {
	return Target{Block: block, Set: s, Depth: -1, RejectInput: -1, RejectEdge: -1}
}

// ChainPoint returns the target addressing input i of the block after its
// first depth chain operators (depth 0 = the raw source or upstream block
// output).
func ChainPoint(block, input, depth int) Target {
	return Target{Block: block, Set: expr.NewSet(input), Depth: depth, RejectInput: -1, RejectEdge: -1}
}

// BlockRejectSE returns a target in which input rej's rows are those
// rejected by join edge e, within the given block.
func BlockRejectSE(block int, s expr.Set, rej, e int) Target {
	return Target{Block: block, Set: s, Depth: -1, RejectInput: rej, RejectEdge: e}
}

// IsReject reports whether the target involves a reject set.
func (t Target) IsReject() bool { return t.RejectInput >= 0 }

// IsChainPoint reports whether the target addresses an intermediate point
// of an input's operator chain.
func (t Target) IsChainPoint() bool { return t.Depth >= 0 }

// Label renders the target using block input names, e.g. "Orders⋈Customer"
// or "!T1(e0)⋈T2"; chain points carry an "@depth" suffix.
func (t Target) Label(b *workflow.Block) string {
	if t.IsChainPoint() {
		return fmt.Sprintf("%s@%d", t.Set.Label(b), t.Depth)
	}
	if !t.IsReject() {
		return t.Set.Label(b)
	}
	parts := make([]string, 0, t.Set.Len())
	for _, i := range t.Set.Members() {
		name := fmt.Sprintf("R%d", i)
		if b != nil && i < len(b.Inputs) {
			name = b.Inputs[i].Name
		}
		if i == t.RejectInput {
			name = "!" + name + fmt.Sprintf("(e%d)", t.RejectEdge)
		}
		parts = append(parts, name)
	}
	return strings.Join(parts, "⋈")
}

// Stat is a statistic descriptor: the kind, the target relation, and — for
// distinct counts and histograms — the attribute set, canonicalized to
// join-equivalence class representatives so that, e.g., H_{T1}^{J12} and
// H_{T1}^{J13} coincide when T1 joins T2 and T3 on the same column.
type Stat struct {
	Kind   Kind
	Target Target
	// Attrs are the class-representative attributes, in canonical order.
	// Empty for cardinalities.
	Attrs []workflow.Attr
}

// NewCard returns the cardinality statistic |se|.
func NewCard(t Target) Stat { return Stat{Kind: Card, Target: t} }

// NewDistinct returns the distinct-count statistic |attrs_se|.
func NewDistinct(t Target, attrs ...workflow.Attr) Stat {
	return Stat{Kind: Distinct, Target: t, Attrs: canonAttrs(attrs)}
}

// NewHist returns the histogram statistic H_se^attrs.
func NewHist(t Target, attrs ...workflow.Attr) Stat {
	return Stat{Kind: Hist, Target: t, Attrs: canonAttrs(attrs)}
}

// canonAttrs sorts and de-duplicates an attribute list (rule composition
// can mention the same class twice, e.g. J5 when the carried attribute is
// the join attribute itself).
func canonAttrs(attrs []workflow.Attr) []workflow.Attr {
	cp := append([]workflow.Attr(nil), attrs...)
	workflow.SortAttrs(cp)
	out := cp[:0]
	for i, a := range cp {
		if i == 0 || cp[i-1] != a {
			out = append(out, a)
		}
	}
	return out
}

// Key is a comparable identity for a statistic, usable as a map key.
type Key struct {
	Kind        Kind
	Block       int16
	Set         expr.Set
	Depth       int16
	RejectInput int16
	RejectEdge  int16
	Attrs       string
}

// Key returns the statistic's comparable identity.
func (s Stat) Key() Key {
	return Key{
		Kind:        s.Kind,
		Block:       int16(s.Target.Block),
		Set:         s.Target.Set,
		Depth:       int16(s.Target.Depth),
		RejectInput: int16(s.Target.RejectInput),
		RejectEdge:  int16(s.Target.RejectEdge),
		Attrs:       workflow.AttrsString(s.Attrs),
	}
}

// Label renders the statistic in the paper's notation, e.g.
// "|Orders⋈Product|" or "H^{Orders.cid}_{Orders}".
func (s Stat) Label(b *workflow.Block) string {
	switch s.Kind {
	case Card:
		return "|" + s.Target.Label(b) + "|"
	case Distinct:
		return "|" + workflow.AttrsString(s.Attrs) + "_{" + s.Target.Label(b) + "}|"
	default:
		return "H^{" + workflow.AttrsString(s.Attrs) + "}_{" + s.Target.Label(b) + "}"
	}
}

// CSS is a candidate statistics set in descriptor form: a minimal set of
// statistics sufficient to compute some other statistic (Section 3.1). The
// planner holds candidate sets as ids (css.Candidate); this form is for
// display. Rule records which rule produced it; Join carries the
// join-attribute class for the join rules.
type CSS struct {
	// Rule is the producing rule's name ("J1", "J4", "I2(J1)", ...).
	Rule string
	// Inputs are the statistics that together compute the target. Their
	// order is rule-specific (e.g. J4: super-SE histogram, joined-relation
	// histogram, reject-variant statistic).
	Inputs []Stat
	// Join is the join-attribute class for the J and R rules (zero value
	// otherwise).
	Join workflow.Attr
}

// Label renders the CSS as "rule{stat, stat, ...}".
func (c CSS) Label(b *workflow.Block) string {
	parts := make([]string, len(c.Inputs))
	for i, s := range c.Inputs {
		parts[i] = s.Label(b)
	}
	return c.Rule + "{" + strings.Join(parts, ", ") + "}"
}
