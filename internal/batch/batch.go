// Package batch is the columnar execution core: typed column vectors, slab
// arenas and selection vectors. The engine interprets the physical IR
// batch-at-a-time over these vectors instead of row-at-a-time over
// map/slice rows — filters mark rows in a selection vector instead of
// materializing new tables, operators allocate their output vectors from a
// per-scope arena, and only results that cross an engine boundary (block
// outputs, materialized targets, statistic values) are copied out.
package batch

import (
	"fmt"
	"math"

	"github.com/essential-stats/etlopt/internal/data"
	"github.com/essential-stats/etlopt/internal/workflow"
)

// Batch is a columnar record batch: one int64 vector per schema column, all
// of physical length N, plus an optional selection vector. When Sel is
// non-nil only the rows it lists (in order) are live; values at unselected
// positions are garbage and must never be read. Sel indexes are positions
// in [0, N).
type Batch struct {
	Cols [][]int64
	N    int
	Sel  []int32
}

// Rows returns the live row count.
func (b *Batch) Rows() int {
	if b.Sel != nil {
		return len(b.Sel)
	}
	return b.N
}

// FromTable transposes a row-major table into a columnar batch with every
// column allocated from the arena.
func FromTable(t *data.Table, a *Arena) (*Batch, error) {
	n, w := len(t.Rows), len(t.Attrs)
	if n > math.MaxInt32 {
		return nil, fmt.Errorf("batch: table %s has %d rows, beyond the int32 selection-vector limit", t.Rel, n)
	}
	b := &Batch{Cols: make([][]int64, w), N: n}
	for c := range b.Cols {
		b.Cols[c] = a.Int64(n)
	}
	for i, r := range t.Rows {
		for c, v := range r {
			b.Cols[c][i] = v
		}
	}
	return b, nil
}

// Table materializes the live rows into a row-major table. All rows share
// one flat backing array, so the conversion costs three allocations however
// many rows it copies.
func (b *Batch) Table(rel string, attrs []workflow.Attr) *data.Table {
	n, w := b.Rows(), len(b.Cols)
	t := &data.Table{Rel: rel, Attrs: attrs}
	if n == 0 {
		return t
	}
	backing := make([]int64, n*w)
	t.Rows = make([]data.Row, n)
	if b.Sel != nil {
		for i, ri := range b.Sel {
			row := backing[i*w : (i+1)*w : (i+1)*w]
			for c := 0; c < w; c++ {
				row[c] = b.Cols[c][ri]
			}
			t.Rows[i] = row
		}
		return t
	}
	for i := 0; i < n; i++ {
		row := backing[i*w : (i+1)*w : (i+1)*w]
		for c := 0; c < w; c++ {
			row[c] = b.Cols[c][i]
		}
		t.Rows[i] = row
	}
	return t
}

// SelectPred evaluates the single-attribute predicate over the column and
// returns the selection vector of matching rows, written into out (which
// must have capacity for every candidate row). sel/n describe the input's
// live rows, exactly as on Batch.
func SelectPred(col []int64, sel []int32, n int, op workflow.CmpOp, c int64, out []int32) []int32 {
	k := 0
	if sel == nil {
		switch op {
		case workflow.CmpEq:
			for i := 0; i < n; i++ {
				if col[i] == c {
					out[k] = int32(i)
					k++
				}
			}
		case workflow.CmpNe:
			for i := 0; i < n; i++ {
				if col[i] != c {
					out[k] = int32(i)
					k++
				}
			}
		case workflow.CmpLt:
			for i := 0; i < n; i++ {
				if col[i] < c {
					out[k] = int32(i)
					k++
				}
			}
		case workflow.CmpLe:
			for i := 0; i < n; i++ {
				if col[i] <= c {
					out[k] = int32(i)
					k++
				}
			}
		case workflow.CmpGt:
			for i := 0; i < n; i++ {
				if col[i] > c {
					out[k] = int32(i)
					k++
				}
			}
		case workflow.CmpGe:
			for i := 0; i < n; i++ {
				if col[i] >= c {
					out[k] = int32(i)
					k++
				}
			}
		}
		return out[:k]
	}
	switch op {
	case workflow.CmpEq:
		for _, i := range sel {
			if col[i] == c {
				out[k] = i
				k++
			}
		}
	case workflow.CmpNe:
		for _, i := range sel {
			if col[i] != c {
				out[k] = i
				k++
			}
		}
	case workflow.CmpLt:
		for _, i := range sel {
			if col[i] < c {
				out[k] = i
				k++
			}
		}
	case workflow.CmpLe:
		for _, i := range sel {
			if col[i] <= c {
				out[k] = i
				k++
			}
		}
	case workflow.CmpGt:
		for _, i := range sel {
			if col[i] > c {
				out[k] = i
				k++
			}
		}
	case workflow.CmpGe:
		for _, i := range sel {
			if col[i] >= c {
				out[k] = i
				k++
			}
		}
	}
	return out[:k]
}

// Gather writes dst[i] = src[idx[i]] for every index.
func Gather(dst, src []int64, idx []int32) {
	for i, ri := range idx {
		dst[i] = src[ri]
	}
}

// JoinIndex is a chained hash index over one build column: head maps a key
// to its first live build row, next links rows sharing the key in ascending
// physical order (so probe matches surface in build order, like the
// reference evaluator's bucket slices).
type JoinIndex struct {
	head map[int64]int32
	next []int32
}

// NewJoinIndex indexes the live rows of a build column. The next-chain is
// arena-allocated; the head map is sized for the live count up front.
func NewJoinIndex(col []int64, sel []int32, n int, a *Arena) *JoinIndex {
	live := n
	if sel != nil {
		live = len(sel)
	}
	ix := &JoinIndex{head: make(map[int64]int32, live), next: a.Int32(n)}
	// Prepending while iterating in reverse leaves each chain in ascending
	// row order.
	if sel != nil {
		for i := len(sel) - 1; i >= 0; i-- {
			ri := sel[i]
			v := col[ri]
			if first, ok := ix.head[v]; ok {
				ix.next[ri] = first
			} else {
				ix.next[ri] = -1
			}
			ix.head[v] = ri
		}
		return ix
	}
	for i := n - 1; i >= 0; i-- {
		v := col[i]
		if first, ok := ix.head[v]; ok {
			ix.next[i] = int32(first)
		} else {
			ix.next[i] = -1
		}
		ix.head[v] = int32(i)
	}
	return ix
}

// First returns the first build row holding the key, or -1.
func (ix *JoinIndex) First(v int64) int32 {
	if r, ok := ix.head[v]; ok {
		return r
	}
	return -1
}

// Next returns the next build row sharing r's key, or -1.
func (ix *JoinIndex) Next(r int32) int32 { return ix.next[r] }
