package stats

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/essential-stats/etlopt/internal/workflow"
)

// Value is an observed statistic value. A stored value fills exactly one
// field, by its kind: Scalar for cardinalities and distinct counts, Hist
// for distributions.
type Value struct {
	Stat   Stat
	Scalar int64
	Hist   *Histogram
}

// Store holds observed statistic values keyed by statistic identity. It is
// the hand-off point between the instrumented execution of the initial
// plan and the optimizer's estimation layer. It is write-once: Put keeps
// the first value per statistic, and Get is the one read.
//
// A store is safe for concurrent use: the parallel execution engine feeds
// it from several block goroutines at once (each block writes disjoint
// keys, but the underlying map still needs synchronization).
type Store struct {
	mu sync.RWMutex
	m  map[Key]*Value
	// id is a process-unique ordering token: operations that must lock
	// two stores (MeasureDrift, Merge) acquire the locks in ascending id
	// order so concurrent two-store operations cannot deadlock.
	id uint64
}

// storeIDs issues the per-store lock-ordering tokens.
var storeIDs atomic.Uint64

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{m: make(map[Key]*Value), id: storeIDs.Add(1)}
}

// lockPair acquires both stores' locks in ascending id order — a for
// reading, b for writing when wr is set (a == b takes a single lock).
// The returned function releases them.
func lockPair(a, b *Store, wr bool) func() {
	lock := func(s *Store, write bool) {
		if write {
			s.mu.Lock()
		} else {
			s.mu.RLock()
		}
	}
	unlock := func(s *Store, write bool) {
		if write {
			s.mu.Unlock()
		} else {
			s.mu.RUnlock()
		}
	}
	if a == b {
		lock(a, wr)
		return func() { unlock(a, wr) }
	}
	first, fw, second, sw := a, false, b, wr
	if b.id < a.id {
		first, fw, second, sw = b, wr, a, false
	}
	lock(first, fw)
	lock(second, sw)
	return func() {
		unlock(second, sw)
		unlock(first, fw)
	}
}

// Len returns the number of stored statistics.
func (st *Store) Len() int {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return len(st.m)
}

// Has reports whether the statistic is present.
func (st *Store) Has(s Stat) bool {
	st.mu.RLock()
	defer st.mu.RUnlock()
	_, ok := st.m[s.Key()]
	return ok
}

// kindError reports a put whose value does not fill exactly the one field
// its statistic kind fills (a scalar for a histogram statistic, a histogram
// and a scalar at once, ...), or whose kind is unknown. It is a typed error
// so the observation layer can mark the statistic degraded and keep the run
// alive instead of crashing it.
type kindError struct {
	// Stat is the mis-declared statistic.
	Stat Stat
}

func (e *kindError) Error() string {
	return fmt.Sprintf("stats: value does not fill exactly the field a %v statistic registers: %v", e.Stat.Kind, e.Stat.Key())
}

// Put records v unless its statistic is already present, atomically: the
// first value per statistic wins and later ones are dropped (the
// check-then-put the collectors rely on). The store keeps v itself, so the
// caller must not modify it afterwards. A value of an unknown kind, with a
// histogram where its kind is not Hist or none where it is, or with both a
// histogram and a scalar, is rejected with a *kindError and the store is
// left as it was.
func (st *Store) Put(v *Value) error {
	s := v.Stat
	if !s.Kind.valid() || (v.Hist != nil) != (s.Kind == Hist) || v.Hist != nil && v.Scalar != 0 {
		return &kindError{Stat: s}
	}
	k := s.Key()
	st.mu.Lock()
	defer st.mu.Unlock()
	if _, ok := st.m[k]; !ok {
		st.m[k] = v
	}
	return nil
}

// Get returns the stored value of the statistic. The value is shared with
// the store and must not be modified.
func (st *Store) Get(s Stat) (*Value, bool) {
	k := s.Key()
	st.mu.RLock()
	defer st.mu.RUnlock()
	v, ok := st.m[k]
	return v, ok
}

// Values returns all stored values in a deterministic order.
func (st *Store) Values() []*Value {
	st.mu.RLock()
	out := make([]*Value, 0, len(st.m))
	for _, v := range st.m {
		out = append(out, v)
	}
	st.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return keyLess(out[i].Stat.Key(), out[j].Stat.Key()) })
	return out
}

// KeyLess orders statistic keys canonically (the order Values uses), so
// callers can sort their own statistic lists deterministically.
func KeyLess(a, b Key) bool { return keyLess(a, b) }

func keyLess(a, b Key) bool {
	if a.Kind != b.Kind {
		return a.Kind < b.Kind
	}
	if a.Block != b.Block {
		return a.Block < b.Block
	}
	if a.Set != b.Set {
		return a.Set < b.Set
	}
	if a.Depth != b.Depth {
		return a.Depth < b.Depth
	}
	if a.RejectInput != b.RejectInput {
		return a.RejectInput < b.RejectInput
	}
	if a.RejectEdge != b.RejectEdge {
		return a.RejectEdge < b.RejectEdge
	}
	return a.Attrs < b.Attrs
}

// Merge copies every value from other that st does not already hold;
// the pay-as-you-go baseline accumulates observations across runs with it.
func (st *Store) Merge(other *Store) {
	if st == other {
		return
	}
	defer lockPair(other, st, true)()
	for k, v := range other.m {
		if _, ok := st.m[k]; !ok {
			st.m[k] = v
		}
	}
}

// MemoryUnits returns the actual memory footprint of the stored statistics
// in abstract integer units: one per scalar, one per histogram bucket. The
// a-priori cost model of Section 5.4 bounds this by domain-size products;
// this accessor reports what the observation actually used.
func (st *Store) MemoryUnits() int64 {
	st.mu.RLock()
	defer st.mu.RUnlock()
	var total int64
	for _, v := range st.m {
		switch {
		case v.Hist != nil:
			total += int64(v.Hist.Buckets())
		default:
			total++
		}
	}
	return total
}

// Dump renders the store's contents for debugging and reports.
func (st *Store) Dump(b *workflow.Block) string {
	out := ""
	for _, v := range st.Values() {
		switch {
		case v.Hist != nil:
			out += fmt.Sprintf("%s: %d buckets, total %d\n", v.Stat.Label(b), v.Hist.Buckets(), v.Hist.Total())
		default:
			out += fmt.Sprintf("%s = %d\n", v.Stat.Label(b), v.Scalar)
		}
	}
	return out
}
