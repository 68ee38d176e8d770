// Package data generates the synthetic relations of the paper's evaluation
// (Section 7): table cardinalities and attribute value distributions drawn
// from a highly skewed Zipfian distribution, fully deterministic under a
// seed so every experiment is reproducible.
package data

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/essential-stats/etlopt/internal/workflow"
)

// Row is one tuple: attribute values in schema order.
type Row []int64

// Table is a materialized relation with its schema.
type Table struct {
	// Rel is the relation name.
	Rel string
	// Attrs is the schema, in canonical order.
	Attrs []workflow.Attr
	// Rows holds the tuples.
	Rows []Row
}

// Col returns the position of attribute a in the schema, or -1.
func (t *Table) Col(a workflow.Attr) int {
	for i, x := range t.Attrs {
		if x == a {
			return i
		}
	}
	return -1
}

// Card returns the number of rows.
func (t *Table) Card() int64 { return int64(len(t.Rows)) }

// distinctOf returns the number of distinct values of attribute a.
func (t *Table) distinctOf(a workflow.Attr) (int64, error) {
	c := t.Col(a)
	if c < 0 {
		return 0, fmt.Errorf("data: attribute %s not in table %s", a, t.Rel)
	}
	seen := make(map[int64]bool)
	for _, r := range t.Rows {
		seen[r[c]] = true
	}
	return int64(len(seen)), nil
}

// zipf draws values in [1, n] with P(k) ∝ 1/k^s, deterministically from the
// given source. It wraps math/rand's Zipf with the paper's "high skew"
// default and 1-based values so 0 can mean NULL-ish absence in tests.
type zipf struct {
	z *rand.Zipf
}

// newZipf returns a Zipfian sampler over [1, n] with exponent s (> 1).
func newZipf(rng *rand.Rand, s float64, n int64) *zipf {
	if s <= 1 {
		s = 1.0001 // rand.Zipf requires s > 1
	}
	return &zipf{z: rand.NewZipf(rng, s, 1, uint64(n-1))}
}

// next draws the next value in [1, n].
func (z *zipf) next() int64 { return int64(z.z.Uint64()) + 1 }

// ColumnSpec configures one generated column.
type ColumnSpec struct {
	Name string
	// Domain is the value domain size: values are drawn from [1, Domain].
	Domain int64
	// Skew is the Zipf exponent; 0 means uniform.
	Skew float64
	// Serial makes the column a unique key 1..N (ignores Domain/Skew).
	Serial bool
}

// TableSpec configures one generated relation.
type TableSpec struct {
	Rel     string
	Card    int64
	Columns []ColumnSpec
}

// Generate materializes a table from its spec using the seeded source.
func Generate(spec TableSpec, seed int64) *Table {
	rng := rand.New(rand.NewSource(seed))
	t := &Table{Rel: spec.Rel}
	for _, c := range spec.Columns {
		t.Attrs = append(t.Attrs, workflow.Attr{Rel: spec.Rel, Col: c.Name})
	}
	samplers := make([]func() int64, len(spec.Columns))
	for i, c := range spec.Columns {
		switch {
		case c.Serial:
			next := int64(0)
			samplers[i] = func() int64 { next++; return next }
		case c.Skew > 0:
			z := newZipf(rng, c.Skew, c.Domain)
			samplers[i] = z.next
		default:
			dom := c.Domain
			samplers[i] = func() int64 { return rng.Int63n(dom) + 1 }
		}
	}
	t.Rows = make([]Row, spec.Card)
	for r := int64(0); r < spec.Card; r++ {
		row := make(Row, len(samplers))
		for i, s := range samplers {
			row[i] = s()
		}
		t.Rows[r] = row
	}
	return t
}

// CatalogEntry derives the catalog metadata (cardinality, per-column domain
// and observed distinct count) for a generated table.
func CatalogEntry(t *Table, spec TableSpec) *workflow.Relation {
	rel := &workflow.Relation{Name: t.Rel, Card: t.Card()}
	for i, c := range spec.Columns {
		dom := c.Domain
		if c.Serial {
			dom = spec.Card
		}
		distinct, _ := t.distinctOf(t.Attrs[i])
		rel.Columns = append(rel.Columns, workflow.Column{Name: c.Name, Domain: dom, Distinct: distinct})
	}
	return rel
}

// Characteristics summarizes a set of tables the way the paper's Section 7
// data table does: max, min, mean and median of cardinalities and of
// per-attribute unique-value counts.
type Characteristics struct {
	CardMax, CardMin, CardMean, CardMedian int64
	UVMax, UVMin, UVMean, UVMedian         int64
}

// Characterize computes the summary over the given tables.
func Characterize(tables []*Table) Characteristics {
	var cards, uvs []int64
	for _, t := range tables {
		cards = append(cards, t.Card())
		for _, a := range t.Attrs {
			d, err := t.distinctOf(a)
			if err == nil {
				uvs = append(uvs, d)
			}
		}
	}
	var ch Characteristics
	ch.CardMax, ch.CardMin, ch.CardMean, ch.CardMedian = summarize(cards)
	ch.UVMax, ch.UVMin, ch.UVMean, ch.UVMedian = summarize(uvs)
	return ch
}

func summarize(vals []int64) (max, min, mean, median int64) {
	if len(vals) == 0 {
		return 0, 0, 0, 0
	}
	sorted := append([]int64(nil), vals...)
	for i := 1; i < len(sorted); i++ { // insertion sort: n is small
		for j := i; j > 0 && sorted[j] < sorted[j-1]; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	min = sorted[0]
	max = sorted[len(sorted)-1]
	var sum float64
	for _, v := range sorted {
		sum += float64(v)
	}
	mean = int64(math.Round(sum / float64(len(sorted))))
	median = sorted[len(sorted)/2]
	return max, min, mean, median
}
