package data

import (
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"github.com/essential-stats/etlopt/internal/workflow"
)

// CSV flat-file support. The paper's motivating worst case is sources that
// are plain files with no statistics at all; these helpers load a directory
// of CSVs as the engine's database and infer the catalog metadata
// (cardinalities, distinct counts, domain sizes) the analyzer and cost
// model need — the part a relational source would have provided.

// readCSVFile parses one CSV file into a table. The first record must be the
// header (column names); all values must be integers (the engine's value
// domain). The relation name is the file name without extension.
func readCSVFile(path string) (*Table, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rel := strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
	t, err := readCSV(f, rel)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return t, nil
}

func readCSV(r io.Reader, rel string) (*Table, error) {
	cr := csv.NewReader(r)
	cr.ReuseRecord = true
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("read header: %w", err)
	}
	t := &Table{Rel: rel}
	seen := make(map[string]bool, len(header))
	for _, col := range header {
		name := strings.TrimSpace(col)
		if name == "" || strings.ContainsRune(name, '\r') {
			return nil, fmt.Errorf("column name %q in header is empty or holds a carriage return, which CSV does not read back", name)
		}
		if seen[name] {
			return nil, fmt.Errorf("duplicate column name %q in header", name)
		}
		seen[name] = true
		t.Attrs = append(t.Attrs, workflow.Attr{Rel: rel, Col: name})
	}
	for line := 2; ; line++ {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", line, err)
		}
		if len(rec) != len(t.Attrs) {
			return nil, fmt.Errorf("line %d: %d fields, want %d", line, len(rec), len(t.Attrs))
		}
		row := make(Row, len(rec))
		for i, field := range rec {
			v, err := strconv.ParseInt(strings.TrimSpace(field), 10, 64)
			if err != nil {
				return nil, fmt.Errorf("line %d column %s: %w", line, t.Attrs[i].Col, err)
			}
			row[i] = v
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// WriteCSV writes a table as CSV (header + rows).
func WriteCSV(w io.Writer, t *Table) error {
	cw := csv.NewWriter(w)
	header := make([]string, len(t.Attrs))
	for i, a := range t.Attrs {
		header[i] = a.Col
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	rec := make([]string, len(t.Attrs))
	for _, row := range t.Rows {
		for i, v := range row {
			rec[i] = strconv.FormatInt(v, 10)
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// LoadDir reads every *.csv file in a directory as a relation.
func LoadDir(dir string) (map[string]*Table, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	out := make(map[string]*Table)
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(strings.ToLower(e.Name()), ".csv") {
			continue
		}
		t, err := readCSVFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		out[t.Rel] = t
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("data: no .csv files in %s", dir)
	}
	return out, nil
}

// InferCatalog derives the catalog metadata the framework needs from
// materialized tables: cardinalities, per-column distinct counts, and
// domain sizes (the observed value range, a practical stand-in for the
// schema-declared domain a DBMS would publish).
func InferCatalog(tables map[string]*Table) *workflow.Catalog {
	cat := &workflow.Catalog{}
	names := make([]string, 0, len(tables))
	for name := range tables {
		names = append(names, name)
	}
	// Deterministic order.
	for i := 1; i < len(names); i++ {
		for j := i; j > 0 && names[j] < names[j-1]; j-- {
			names[j], names[j-1] = names[j-1], names[j]
		}
	}
	for _, name := range names {
		t := tables[name]
		rel := &workflow.Relation{Name: name, Card: t.Card()}
		for c, a := range t.Attrs {
			seen := make(map[int64]bool)
			var lo, hi int64
			for r, row := range t.Rows {
				v := row[c]
				seen[v] = true
				if r == 0 || v < lo {
					lo = v
				}
				if r == 0 || v > hi {
					hi = v
				}
			}
			domain := hi - lo + 1
			if len(t.Rows) == 0 {
				domain = 1
			}
			rel.Columns = append(rel.Columns, workflow.Column{
				Name:     a.Col,
				Domain:   domain,
				Distinct: int64(len(seen)),
			})
		}
		cat.Relations = append(cat.Relations, rel)
	}
	return cat
}
