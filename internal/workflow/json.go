package workflow

import (
	"encoding/json"
	"fmt"
	"io"
)

// Document bundles a workflow with its catalog for serialization; it is the
// interchange format analogous to the DataStage XML exports the paper's
// module consumed.
type Document struct {
	Workflow *Graph   `json:"workflow"`
	Catalog  *Catalog `json:"catalog"`
}

// Encode writes the document as indented JSON.
func (d *Document) Encode(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(d); err != nil {
		return fmt.Errorf("encode workflow document: %w", err)
	}
	return nil
}

// Decode reads a document from JSON and validates the workflow.
func Decode(r io.Reader) (*Document, error) {
	var d Document
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&d); err != nil {
		return nil, fmt.Errorf("decode workflow document: %w", err)
	}
	if d.Workflow == nil {
		return nil, fmt.Errorf("decode workflow document: missing workflow")
	}
	if d.Catalog == nil {
		return nil, fmt.Errorf("decode workflow document: missing catalog")
	}
	if err := d.Workflow.validate(); err != nil {
		return nil, err
	}
	return &d, nil
}

// MarshalJSON encodes the node kind as its operator name.
func (k NodeKind) MarshalJSON() ([]byte, error) { return json.Marshal(k.String()) }

// UnmarshalJSON decodes an operator name into a node kind.
func (k *NodeKind) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return err
	}
	for cand := KindSource; cand <= KindSink; cand++ {
		if cand.String() == s {
			*k = cand
			return nil
		}
	}
	return fmt.Errorf("unknown node kind %q", s)
}

// MarshalJSON encodes the comparison operator as its SQL spelling.
func (op CmpOp) MarshalJSON() ([]byte, error) { return json.Marshal(op.String()) }

// UnmarshalJSON decodes a SQL comparison spelling.
func (op *CmpOp) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return err
	}
	for cand := CmpEq; cand <= CmpGe; cand++ {
		if cand.String() == s {
			*op = cand
			return nil
		}
	}
	return fmt.Errorf("unknown comparison operator %q", s)
}
