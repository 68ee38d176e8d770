package workflow

import (
	"fmt"
)

// Column describes one column of a base relation, including the metadata
// the cost model needs: the domain size (number of possible values) used
// for histogram memory estimates, and the observed number of distinct
// values when known.
type Column struct {
	Name string `json:"name"`
	// Domain is the size of the value domain |a| over all relations; it
	// bounds histogram memory (Section 5.4 of the paper).
	Domain int64 `json:"domain"`
	// Distinct is the number of distinct values |a_T| actually present in
	// the relation, if known (0 means unknown).
	Distinct int64 `json:"distinct,omitempty"`
}

// Relation describes a base relation (source table or flat file).
type Relation struct {
	Name string `json:"name"`
	// Card is the relation cardinality |T| if known (0 means unknown).
	Card int64 `json:"card,omitempty"`
	// Columns lists the relation's columns.
	Columns []Column `json:"columns"`
	// HasSourceStats marks relations that live in a relational source
	// system whose own statistics are available for free (Section 6.2).
	HasSourceStats bool `json:"hasSourceStats,omitempty"`
}

// Column returns the named column, or nil.
func (r *Relation) Column(name string) *Column {
	for i := range r.Columns {
		if r.Columns[i].Name == name {
			return &r.Columns[i]
		}
	}
	return nil
}

// FD records a functional dependency within one relation: the determinant
// attribute set functionally determines the dependent attribute. FDs let
// the framework shrink multi-attribute histograms (Section 6 of the paper).
type FD struct {
	Rel        string   `json:"rel"`
	Determines []string `json:"determines"`
	Dependent  string   `json:"dependent"`
}

// Catalog is the metadata the analyzer and the cost model consult:
// relations with domain sizes, plus functional dependencies.
type Catalog struct {
	Relations []*Relation `json:"relations"`
	FDs       []FD        `json:"fds,omitempty"`
}

// Relation returns the named relation, or nil.
func (c *Catalog) Relation(name string) *Relation {
	for _, r := range c.Relations {
		if r.Name == name {
			return r
		}
	}
	return nil
}

// Domain returns the domain size of attribute a, or an error if the
// attribute is unknown. Attributes derived by transforms are registered by
// AddDerived.
func (c *Catalog) Domain(a Attr) (int64, error) {
	rel := c.Relation(a.Rel)
	if rel == nil {
		return 0, fmt.Errorf("catalog: unknown relation %q", a.Rel)
	}
	col := rel.Column(a.Col)
	if col == nil {
		return 0, fmt.Errorf("catalog: unknown column %s", a)
	}
	if col.Domain <= 0 {
		return 0, fmt.Errorf("catalog: column %s has no domain size", a)
	}
	return col.Domain, nil
}

// AddDerived registers a derived attribute (the output of a transform) so
// the cost model can size histograms over it. If the relation does not
// exist yet a synthetic relation entry is created.
func (c *Catalog) AddDerived(a Attr, domain int64) {
	rel := c.Relation(a.Rel)
	if rel == nil {
		rel = &Relation{Name: a.Rel}
		c.Relations = append(c.Relations, rel)
	}
	if col := rel.Column(a.Col); col != nil {
		col.Domain = domain
		return
	}
	rel.Columns = append(rel.Columns, Column{Name: a.Col, Domain: domain})
}

// clone returns a deep copy of the catalog; analyses that register derived
// attributes use a clone so the caller's catalog is untouched.
func (c *Catalog) clone() *Catalog {
	out := &Catalog{FDs: append([]FD(nil), c.FDs...)}
	for _, r := range c.Relations {
		rc := &Relation{Name: r.Name, Card: r.Card, HasSourceStats: r.HasSourceStats}
		rc.Columns = append(rc.Columns, r.Columns...)
		out.Relations = append(out.Relations, rc)
	}
	return out
}

// Determined reports whether, per the declared FDs, the attribute dep is
// functionally determined by the attribute set dets (all within one
// relation). Only single-step FDs are consulted; the transitive closure is
// the caller's fixed point (the cost model's FD reduction of a histogram's
// attributes).
func (c *Catalog) Determined(dets []Attr, dep Attr) bool {
	for _, fd := range c.FDs {
		if fd.Rel != dep.Rel || fd.Dependent != dep.Col {
			continue
		}
		all := true
		for _, d := range fd.Determines {
			if !attrIn(dets, Attr{Rel: fd.Rel, Col: d}) {
				all = false
				break
			}
		}
		if all {
			return true
		}
	}
	return false
}
