package estimate

import (
	"fmt"
	"strings"

	"github.com/essential-stats/etlopt/internal/stats"
	"github.com/essential-stats/etlopt/internal/workflow"
)

// Explanation is a derivation tree: how a statistic's value was obtained —
// directly observed, or computed by a rule from other statistics.
type Explanation struct {
	// Stat is the statistic being explained.
	Stat stats.Stat
	// Value is its (scalar) value; for histograms the bucket count and
	// total are rendered instead.
	Value *stats.Value
	// Rule is the rule that produced the value, or "observed" for
	// statistics taken directly from the store.
	Rule string
	// Inputs are the explanations of the rule's inputs (empty for observed
	// statistics).
	Inputs []*Explanation
}

// Explain computes (or recalls) the value of a statistic and returns its
// full derivation tree: the candidate set Value derived it through, as the
// estimator recorded it for each statistic.
func (e *Estimator) Explain(s stats.Stat) (*Explanation, error) {
	v, err := e.Value(s)
	if err != nil {
		return nil, err
	}
	if e.Store.Has(s) {
		return &Explanation{Stat: s, Value: v, Rule: "observed"}, nil
	}
	id, ok := e.Res.Lookup(s)
	if !ok || e.state[id] < derived {
		return nil, fmt.Errorf("estimate: no evaluable derivation for %v", s.Key())
	}
	c := e.Res.CSS[id][e.state[id]-derived]
	ex := &Explanation{Stat: s, Value: v, Rule: c.Rule.String(), Inputs: make([]*Explanation, 0, len(c.Inputs))}
	for _, in := range c.Inputs {
		child, err := e.Explain(e.Res.Stats[in])
		if err != nil {
			return nil, err
		}
		ex.Inputs = append(ex.Inputs, child)
	}
	return ex, nil
}

// Render formats the derivation tree with one node per line, indenting
// children, using the block's input names.
func (ex *Explanation) Render(blk *workflow.Block) string {
	var sb strings.Builder
	ex.render(&sb, blk, 0)
	return sb.String()
}

func (ex *Explanation) render(sb *strings.Builder, blk *workflow.Block, depth int) {
	sb.WriteString(strings.Repeat("  ", depth))
	sb.WriteString(ex.Stat.Label(blk))
	sb.WriteString(" = ")
	if ex.Value.Hist != nil {
		fmt.Fprintf(sb, "histogram[%d buckets, total %d]", ex.Value.Hist.Buckets(), ex.Value.Hist.Total())
	} else {
		fmt.Fprintf(sb, "%d", ex.Value.Scalar)
	}
	if ex.Rule == "observed" {
		sb.WriteString("   (observed)")
	} else {
		fmt.Fprintf(sb, "   (rule %s)", ex.Rule)
	}
	sb.WriteString("\n")
	for _, in := range ex.Inputs {
		in.render(sb, blk, depth+1)
	}
}
