// Package css generates candidate statistics sets (CSSs) for every
// statistic needed to cost any reordering of an ETL workflow, implementing
// Section 4 of Halasipuram et al. (EDBT 2014): the per-operator rules of
// Tables 2–5 (select, project, join, group-by, transform), the identity
// rules I1/I2, and the union–division rules J4/J5 that exploit reject
// links. Algorithm 1's worklist drives rule application.
//
// This package mints the planner's one id space. While the rules run a
// statistic is an ident — a comparable struct of integers — interned to a
// provisional id on first sight, so a rule application formats nothing;
// Generate then renumbers the universe once into canonical order and emits
// it as id-indexed slices (see Result). Universe order and per-statistic
// candidate order are behaviour (solver tie-breaks, the rule the estimator
// tries first) and are pinned by the suite's planner digest.
package css

import (
	"fmt"
	"slices"

	"github.com/essential-stats/etlopt/internal/expr"
	"github.com/essential-stats/etlopt/internal/stats"
	"github.com/essential-stats/etlopt/internal/workflow"
)

// Options control CSS generation. Only union–division is a switch: the
// cross-block boundary rules always apply, and the foreign-key shortcut
// wherever the workflow marks a join as a foreign-key look-up.
type Options struct {
	// UnionDivision enables rules J4/J5, which derive statistics of
	// unobservable SEs from an observable super-SE plus reject-link
	// statistics. Figures 9 and 11 of the paper sweep this switch.
	UnionDivision bool
}

// DefaultOptions enable every rule family.
func DefaultOptions() Options {
	return Options{UnionDivision: true}
}

// Candidate is one candidate statistics set of a statistic: a minimal set
// of statistics sufficient to compute it (Section 3.1), held as ids.
type Candidate struct {
	// Rule is the producing rule.
	Rule Rule
	// Inputs are the ids of the statistics that together compute the
	// target. Their order is rule-specific (e.g. J4: super-SE histogram,
	// joined-relation histogram, reject-variant statistic).
	Inputs []int32
	// Join is the join-attribute class for the J and R rules (zero value
	// otherwise), which the estimation layer needs to evaluate them.
	Join workflow.Attr
}

// Result is the output of CSS generation for a whole workflow: the
// statistic universe S, the candidate statistics sets per statistic, the
// required set S_C (cardinalities of every SE of every block), and the
// observability classification S_O. A statistic's id is its index in Stats;
// the other slices are indexed by it, candidate inputs are ids, and Lookup
// maps a descriptor to its id. A Result is immutable once generated and
// safe to share between goroutines.
type Result struct {
	Analysis *workflow.Analysis
	// Spaces holds one enumerated plan space per optimizable block.
	Spaces []*expr.Space
	// Stats is the universe S of statistics mentioned anywhere, in
	// canonical order: by block, kind, SE, depth, reject input, reject
	// edge, then attribute string (the solvers break ties on the lowest id).
	Stats []stats.Stat
	// CSS lists each statistic's candidate statistics sets (excluding the
	// trivial CSS, which is represented by direct observation) in
	// rule-application order, then I1/I2 by input attribute count and
	// string; the estimator evaluates them in this order.
	CSS [][]Candidate
	// Required is S_C: the cardinality statistics of every SE, block by
	// block in SE order; RequiredIDs holds their ids.
	Required    []stats.Stat
	RequiredIDs []int32
	// Observable is S_O: statistics that instrumentation of the initial
	// plan can observe directly (including reject-link statistics that
	// need an added reject link, marked in NeedsRejectLink).
	Observable []bool
	// NeedsRejectLink marks observable statistics that require adding an
	// explicit reject link (and an auxiliary join for multi-input reject
	// targets) to the initial plan, per Section 4.1.2.
	NeedsRejectLink []bool

	opt    Options
	blocks []*blockCtx
	// ids maps every universe statistic's identity to its id (see Lookup).
	ids map[ident]int32
}

// Space returns the plan space of block b.
func (r *Result) Space(b int) *expr.Space { return r.Spaces[b] }

// NumCSS returns the total number of candidate statistics sets across all
// statistics (the quantity plotted in Figure 9 of the paper).
func (r *Result) NumCSS() int {
	n := 0
	for _, cs := range r.CSS {
		n += len(cs)
	}
	return n
}

// NumSEs returns the total number of sub-expressions across blocks.
func (r *Result) NumSEs() int {
	n := 0
	for _, sp := range r.Spaces {
		n += len(sp.SEs)
	}
	return n
}

// CardID returns the id of the cardinality statistic of an SE, or false
// when se is not a sub-expression of the block.
func (r *Result) CardID(block int, se expr.Set) (int32, bool) {
	if block < 0 || block >= len(r.blocks) {
		return 0, false
	}
	i, ok := r.Spaces[block].IndexOf(se)
	if !ok {
		return 0, false
	}
	return r.blocks[block].cardIDs[i], true
}

// RejectLinked reports whether observing the statistic requires adding a
// reject link to the initial plan.
func (r *Result) RejectLinked(s stats.Stat) bool {
	id, ok := r.Lookup(s)
	return ok && r.NeedsRejectLink[id]
}

// Describe spells a candidate set in descriptor form, for display.
func (r *Result) Describe(c Candidate) stats.CSS {
	out := stats.CSS{Rule: c.Rule.String(), Join: c.Join, Inputs: make([]stats.Stat, len(c.Inputs))}
	for i, in := range c.Inputs {
		out.Inputs[i] = r.Stats[in]
	}
	return out
}

// blockCtx caches per-block derived structure used by the rules.
type blockCtx struct {
	idx int
	blk *workflow.Block
	sp  *expr.Space
	// chainAttrs[i][d] is the schema of input i's chain at depth d
	// (0 = raw source or upstream boundary, len(ops) = cooked input).
	chainAttrs [][][]workflow.Attr

	// The rules name attributes by class id (see classID): attrID maps an
	// attribute to its class; reps, members and owners hold per class the
	// representative, the sorted members and the inputs owning a member.
	attrID  map[workflow.Attr]int32
	reps    []workflow.Attr
	members [][]workflow.Attr
	owners  []expr.Set
	// lists interns the attribute lists of the block's statistics.
	lists attrLists
	// edgeClass[j] is the class id of join edge j's attribute.
	edgeClass []int32
	// cardIDs[i] is the id of the cardinality statistic of sp.SEs[i].
	cardIDs []int32
}

// chainLen returns the number of pushed-down operators on input i.
func (bc *blockCtx) chainLen(i int) int { return len(bc.blk.Inputs[i].Ops) }

// newBlockCtx enumerates the block's plan space and computes chain-point
// schemas.
func newBlockCtx(an *workflow.Analysis, idx int) (*blockCtx, error) {
	blk := an.Blocks[idx]
	sp, err := expr.Enumerate(blk)
	if err != nil {
		return nil, fmt.Errorf("block %d: %w", idx, err)
	}
	bc := &blockCtx{idx: idx, blk: blk, sp: sp, attrID: make(map[workflow.Attr]int32)}
	bc.lists = attrLists{next: make(map[uint64]int32), ids: [][]int32{nil}, attrs: [][]workflow.Attr{nil}}
	for _, e := range blk.Joins {
		bc.edgeClass = append(bc.edgeClass, bc.classID(e.LeftAttr))
	}
	for i := range blk.Inputs {
		in := &blk.Inputs[i]
		raw := an.Schema[in.EntryNode]
		attrs := [][]workflow.Attr{raw}
		cur := raw
		for _, op := range in.Ops {
			cur = applyOpSchema(cur, op)
			attrs = append(attrs, cur)
		}
		bc.chainAttrs = append(bc.chainAttrs, attrs)
	}
	return bc, nil
}

// applyOpSchema advances a schema across one unary operator.
func applyOpSchema(in []workflow.Attr, op *workflow.Node) []workflow.Attr {
	switch op.Kind {
	case workflow.KindProject:
		return workflow.SortAttrs(slices.Clone(op.Cols))
	case workflow.KindTransform:
		out := slices.Clone(in)
		if !slices.Contains(out, op.Transform.Out) {
			out = append(out, op.Transform.Out)
		}
		return workflow.SortAttrs(out)
	default: // select keeps the schema
		return in
	}
}

// memberIn returns the first of members present in schema.
func memberIn(schema, members []workflow.Attr) (workflow.Attr, bool) {
	for _, m := range members {
		if slices.Contains(schema, m) {
			return m, true
		}
	}
	return workflow.Attr{}, false
}

// hasAttrsAt reports whether every class has a member in input i's chain
// schema at depth d.
func (bc *blockCtx) hasAttrsAt(i, d int, classes []int32) bool {
	for _, c := range classes {
		if _, ok := memberIn(bc.chainAttrs[i][d], bc.members[c]); !ok {
			return false
		}
	}
	return true
}

// BoundaryClass translates a downstream block's class-representative
// attribute into the upstream block's class representative, across the
// boundary feeding input i of block. It is the attribute mapping behind the
// cross-block rules (B0/G2/U2) and their numeric evaluation.
func (r *Result) BoundaryClass(block, input int, a workflow.Attr) (workflow.Attr, error) {
	bc := r.blocks[block]
	in := bc.blk.Inputs[input]
	if in.FromBlock < 0 {
		return workflow.Attr{}, fmt.Errorf("css: input %d of block %d is not a block boundary", input, block)
	}
	phys, ok := memberIn(bc.chainAttrs[input][0], bc.sp.ClassMembers(a))
	if !ok {
		return workflow.Attr{}, fmt.Errorf("css: attribute %v not present at boundary of block %d input %d", a, block, input)
	}
	return r.blocks[in.FromBlock].sp.ClassOf(phys), nil
}

// PhysicalAttrs resolves a statistic's class-representative attributes to
// the physical attributes present at the statistic's target, for use by the
// instrumentation and estimation layers.
func (r *Result) PhysicalAttrs(s stats.Stat) ([]workflow.Attr, error) {
	bc := r.blocks[s.Target.Block]
	out := make([]workflow.Attr, 0, len(s.Attrs))
	for _, rep := range s.Attrs {
		if s.Target.IsChainPoint() {
			phys, ok := memberIn(bc.chainAttrs[s.Target.Set.Lowest()][s.Target.Depth], bc.sp.ClassMembers(rep))
			if !ok {
				return nil, fmt.Errorf("stat %v: attrs not resolvable at chain point", s.Key())
			}
			out = append(out, phys)
			continue
		}
		// A member owned by the target's own inputs; for reject targets the
		// replaced input still carries its attributes.
		phys, ok := bc.sp.MemberIn(s.Target.Set, rep)
		if !ok {
			return nil, fmt.Errorf("stat %v: attribute class %v absent from target", s.Key(), rep)
		}
		out = append(out, phys)
	}
	return out, nil
}
