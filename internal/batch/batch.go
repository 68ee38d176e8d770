// Package batch is the columnar execution core: typed column vectors, slab
// arenas and selection vectors. The engine interprets the physical IR
// batch-at-a-time over these vectors instead of row-at-a-time over
// map/slice rows — filters mark rows in a selection vector instead of
// materializing new tables, joins emit index vectors instead of copying
// columns, and operators allocate their output vectors from a per-scope
// arena. Nothing here builds rows: a table that crosses a block boundary
// (a block output, a materialized target) leaves as the index vectors Reads
// returns, in the engine's late form (data.Late), whose Table is the one
// row kernel, and an upstream output comes back in through FromLate.
package batch

import (
	"fmt"
	"math"
	"slices"

	"github.com/essential-stats/etlopt/internal/data"
	"github.com/essential-stats/etlopt/internal/mix"
	"github.com/essential-stats/etlopt/internal/workflow"
)

// Batch is a columnar record batch: one int64 column per schema attribute
// over N physical rows, plus an optional selection vector. When Sel is
// non-nil only the rows it lists (in order) are live; values at unselected
// positions are garbage and must never be read. Sel indexes are positions
// in [0, N).
//
// A column is dense or late. A dense column is its vector: row r is
// Cols[c][r]. A late column — a join output column — is a source vector
// read through an index vector: Cols[c] is the source and row r is
// Cols[c][idx[c][r]]. Read columns through Col, which gathers a late column
// into the batch's arena on its first read and caches the dense copy;
// Cols[c] is the column itself only when it is dense. Because Col caches, a
// Batch is not safe for concurrent use.
type Batch struct {
	Cols [][]int64
	N    int
	Sel  []int32
	// idx is nil when every column is dense, else one index vector per
	// column, nil for the dense ones. Cols and idx are never written once
	// the batch is made, so batches derived from it share them.
	idx [][]int32
	// gathered caches Col's dense copies of late columns, by column. It is
	// the batch's own: a derived batch starts from a copy.
	gathered [][]int64
	// arena receives the gathers of late columns.
	arena *Arena
}

// Rows returns the live row count.
func (b *Batch) Rows() int {
	if b.Sel != nil {
		return len(b.Sel)
	}
	return b.N
}

// late returns the index vector of column c, nil when c is dense.
func (b *Batch) late(c int) []int32 {
	if b.idx == nil {
		return nil
	}
	return b.idx[c]
}

// Col returns column c as a dense vector over the batch's physical rows.
// A late column is gathered into the arena on its first read, live rows
// only, and the copy is kept for every later read.
func (b *Batch) Col(c int) []int64 {
	ix := b.late(c)
	if ix == nil {
		return b.Cols[c]
	}
	if b.gathered == nil {
		b.gathered = make([][]int64, len(b.Cols))
	} else if g := b.gathered[c]; g != nil {
		return g
	}
	src, dst := b.Cols[c], b.arena.Int64(b.N)
	if b.Sel != nil {
		for _, r := range b.Sel {
			dst[r] = src[ix[r]]
		}
	} else {
		gather(dst, src, ix)
	}
	b.gathered[c] = dst
	return dst
}

// gather writes dst[i] = src[idx[i]] for every index.
func gather(dst, src []int64, idx []int32) {
	for i, ri := range idx {
		dst[i] = src[ri]
	}
}

// WithSel returns the batch's columns with sel as the selection. sel must
// list live rows of b. Late columns stay late.
func (b *Batch) WithSel(sel []int32) *Batch {
	return &Batch{Cols: b.Cols, N: b.N, Sel: sel, idx: b.idx, gathered: slices.Clone(b.gathered), arena: b.arena}
}

// Project returns the batch's columns cols, in that order, over the same
// rows. No column is copied and late columns stay late.
func (b *Batch) Project(cols []int) *Batch {
	return &Batch{
		Cols: pick(b.Cols, cols), N: b.N, Sel: b.Sel,
		idx: pick(b.idx, cols), gathered: pick(b.gathered, cols), arena: b.arena,
	}
}

// pick returns s's elements at cols, nil for a nil s.
func pick[T any](s []T, cols []int) []T {
	if s == nil {
		return nil
	}
	out := make([]T, len(cols))
	for i, c := range cols {
		out[i] = s[c]
	}
	return out
}

// AppendCol returns the batch with the dense vector v, of length N, as one
// more trailing column.
func (b *Batch) AppendCol(v []int64) *Batch {
	d := &Batch{Cols: append(slices.Clip(b.Cols), v), N: b.N, Sel: b.Sel, arena: b.arena}
	if b.idx != nil {
		d.idx = append(slices.Clip(b.idx), nil)
	}
	if b.gathered != nil {
		d.gathered = append(slices.Clip(b.gathered), nil)
	}
	return d
}

// Join returns the batch of matched pairs: output row i is left row lidx[i]
// followed by right row ridx[i]. lidx and ridx have equal length and list
// live rows of their sides; the output has no selection. Join copies no
// column. Every output column is late: a dense input column reads through
// its side's index vector, and a late one through its own index composed
// with that vector — composed once per distinct index vector, so columns
// that came through the same joins share one composition. A late column Col
// has gathered is bound late all the same: it shares its siblings'
// composition instead of adding a distinct index to the output.
func Join(left, right *Batch, lidx, ridx []int32, a *Arena) *Batch {
	m, wL := len(lidx), len(left.Cols)
	out := &Batch{Cols: make([][]int64, wL+len(right.Cols)), N: m, arena: a}
	if m == 0 {
		// Every column is an empty dense vector.
		return out
	}
	out.idx = make([][]int32, len(out.Cols))
	bindSide(out, 0, left, lidx, a)
	bindSide(out, wL, right, ridx, a)
	return out
}

// bindSide points the output columns from off on at in's columns, read
// through ix.
func bindSide(out *Batch, off int, in *Batch, ix []int32, a *Arena) {
	// Compositions made so far, by the identity of the input index vector.
	type composed struct {
		from *int32
		to   []int32
	}
	var buf [8]composed
	done := buf[:0]
	for c, src := range in.Cols {
		out.Cols[off+c] = src
		inIx := in.late(c)
		if inIx == nil {
			out.idx[off+c] = ix
			continue
		}
		var to []int32
		for _, d := range done {
			if d.from == &inIx[0] {
				to = d.to
				break
			}
		}
		if to == nil {
			to = a.Int32(len(ix))
			for i, r := range ix {
				to[i] = inIx[r]
			}
			done = append(done, composed{&inIx[0], to})
		}
		out.idx[off+c] = to
	}
}

// Read is one of a batch's distinct index vectors, with the selection folded
// in: live row i of each column in Cols is Cols[c][Idx[i]] of the batch.
type Read struct {
	Idx  []int32
	Cols []int
}

// Reads returns the batch's distinct index vectors over its live rows, each
// with the columns it reads, in the order of their first columns: one per
// index vector late columns share, and one for the dense columns, which read
// through the selection or, without one, the identity. The vectors are new,
// so they outlive the arena.
func (b *Batch) Reads() []Read {
	var reads []Read
	// The index vector each read composes, by its first element; nil for
	// the dense columns, and for every column of a batch without rows.
	var from []*int32
	for c := range b.Cols {
		ix := b.late(c)
		var key *int32
		if len(ix) > 0 {
			key = &ix[0]
		}
		k := slices.Index(from, key)
		if k < 0 {
			k = len(reads)
			from = append(from, key)
			reads = append(reads, Read{Idx: b.liveIndex(ix)})
		}
		reads[k].Cols = append(reads[k].Cols, c)
	}
	return reads
}

// liveIndex is ix, or the identity for a nil ix, read at the live rows. A
// copy is a clone, which the runtime does not zero first.
func (b *Batch) liveIndex(ix []int32) []int32 {
	switch {
	case ix == nil && b.Sel != nil:
		return slices.Clone(b.Sel)
	case ix != nil && b.Sel == nil:
		return slices.Clone(ix[:b.N])
	}
	out := make([]int32, b.Rows())
	for i := range out {
		if ix == nil {
			out[i] = int32(i)
		} else {
			out[i] = ix[b.Sel[i]]
		}
	}
	return out
}

// FromTable transposes a row-major source relation into a columnar batch
// with every column allocated from the arena.
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

// FromLate gathers a late table into a columnar batch with every column
// allocated from the arena.
func FromLate(t *data.Late, a *Arena) (*Batch, error) {
	if t.N > math.MaxInt32 {
		return nil, fmt.Errorf("batch: table %s has %d rows, beyond the int32 selection-vector limit", t.Rel, t.N)
	}
	b := &Batch{Cols: make([][]int64, len(t.Cols)), N: t.N}
	for c := range b.Cols {
		b.Cols[c] = a.Int64(t.N)
		t.Gather(b.Cols[c], c)
	}
	return b, nil
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

// JoinIndex is a chained hash index over one build column. heads is an
// open-addressing table holding, per key, its first live build row + 1 (0
// is an empty cell); a probe compares its key with the build column at that
// row, so no key is copied. next links rows sharing the key in ascending
// physical order (so probe matches surface in build order, like the
// reference evaluator's bucket slices), and size counts each chain, so a
// probe knows its match count before it walks the chain.
type JoinIndex struct {
	col   []int64
	heads []int32
	next  []int32
	size  []int32
}

// NewJoinIndex indexes the live rows of a build column. Every vector comes
// from the arena: the heads table, sized once for the live rows at a load
// of at most one half, the next-chain and the chain lengths.
func NewJoinIndex(col []int64, sel []int32, n int, a *Arena) *JoinIndex {
	live := n
	if sel != nil {
		live = len(sel)
	}
	ix := &JoinIndex{col: col, heads: a.Int32(mix.TableSize(live)), next: a.Int32(n), size: a.Int32(n)}
	clear(ix.heads)
	// Prepending while iterating in reverse leaves each chain in ascending
	// row order.
	if sel != nil {
		for i := len(sel) - 1; i >= 0; i-- {
			ix.prepend(sel[i])
		}
		return ix
	}
	for i := n - 1; i >= 0; i-- {
		ix.prepend(int32(i))
	}
	return ix
}

// cell returns the heads cell of key v: the one holding its chain, or the
// empty cell where the chain would go.
func (ix *JoinIndex) cell(v int64) int {
	mask := len(ix.heads) - 1
	i := int(mix.Value(v)) & mask
	for {
		h := ix.heads[i]
		if h == 0 || ix.col[h-1] == v {
			return i
		}
		i = (i + 1) & mask
	}
}

// prepend makes build row r the head of its key's chain.
func (ix *JoinIndex) prepend(r int32) {
	i := ix.cell(ix.col[r])
	if first := ix.heads[i] - 1; first >= 0 {
		ix.next[r], ix.size[r] = first, ix.size[first]+1
	} else {
		ix.next[r], ix.size[r] = -1, 1
	}
	ix.heads[i] = r + 1
}

// First returns the first build row holding the key, or -1.
func (ix *JoinIndex) First(v int64) int32 { return ix.heads[ix.cell(v)] - 1 }

// Next returns the next build row sharing r's key, or -1.
func (ix *JoinIndex) Next(r int32) int32 { return ix.next[r] }

// ChainLen returns how many build rows the chain holds from r to its end,
// r included: for r = First(v), the number of build rows holding v.
func (ix *JoinIndex) ChainLen(r int32) int { return int(ix.size[r]) }
