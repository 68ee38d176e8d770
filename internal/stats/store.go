package stats

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/essential-stats/etlopt/internal/workflow"
)

// Value is an observed statistic value. Exactly one representation is
// populated, matching the kind's registered shape: a scalar for
// cardinalities and distinct counts, a histogram for distributions, a
// sketch for the approximate kinds.
type Value struct {
	Stat   Stat
	Scalar int64
	Hist   *Histogram
	HLL    *HLL
	CM     *CMH
	// Approx marks values whose figure came through the sketch tier —
	// either a sketch itself or a scalar/histogram derived from one — so
	// estimation feedback can tag its source tier.
	Approx bool
}

// Store holds observed (or derived) statistic values keyed by statistic
// identity. It is the hand-off point between the instrumented execution of
// the initial plan and the optimizer's estimation layer.
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

// kindError reports a put whose value shape does not match the statistic
// kind's registered shape (a scalar for a histogram statistic, a histogram
// for a sketch, ...). It is a typed error so the observation layer can mark
// the statistic degraded and keep the run alive instead of crashing it.
type kindError struct {
	// Stat is the mis-declared statistic.
	Stat Stat
	// Op names the rejected operation ("PutScalar", "PutHistOnce", ...).
	Op string
}

func (e *kindError) Error() string {
	return fmt.Sprintf("stats: %s on %s-shaped statistic %v", e.Op, e.Stat.Kind.Shape(), e.Stat.Key())
}

// checkShape validates a put against the kind registry.
func checkShape(s Stat, want Shape, op string) error {
	if !s.Kind.valid() || s.Kind.Shape() != want {
		return &kindError{Stat: s, Op: op}
	}
	return nil
}

// put stores a value, optionally only when absent.
func (st *Store) put(v *Value, once bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	k := v.Stat.Key()
	if once {
		if _, ok := st.m[k]; ok {
			return
		}
	}
	st.m[k] = v
}

// PutScalar records a cardinality or distinct-count observation.
func (st *Store) PutScalar(s Stat, v int64) error {
	if err := checkShape(s, ShapeScalar, "PutScalar"); err != nil {
		return err
	}
	st.put(&Value{Stat: s, Scalar: v}, false)
	return nil
}

// putHist records a histogram observation.
func (st *Store) putHist(s Stat, h *Histogram) error {
	if err := checkShape(s, ShapeHist, "PutHist"); err != nil {
		return err
	}
	st.put(&Value{Stat: s, Hist: h}, false)
	return nil
}

// PutScalarOnce records the scalar unless the statistic is already present,
// atomically (the check-then-put the collectors rely on).
func (st *Store) PutScalarOnce(s Stat, v int64) error {
	if err := checkShape(s, ShapeScalar, "PutScalarOnce"); err != nil {
		return err
	}
	st.put(&Value{Stat: s, Scalar: v}, true)
	return nil
}

// PutHistOnce records the histogram unless the statistic is already
// present, atomically.
func (st *Store) PutHistOnce(s Stat, h *Histogram) error {
	if err := checkShape(s, ShapeHist, "PutHistOnce"); err != nil {
		return err
	}
	st.put(&Value{Stat: s, Hist: h}, true)
	return nil
}

// putHLL records a HyperLogLog sketch observation.
func (st *Store) putHLL(s Stat, h *HLL) error {
	if err := checkShape(s, ShapeHLL, "PutHLL"); err != nil {
		return err
	}
	st.put(&Value{Stat: s, HLL: h, Approx: true}, false)
	return nil
}

// PutHLLOnce records the sketch unless the statistic is already present.
func (st *Store) PutHLLOnce(s Stat, h *HLL) error {
	if err := checkShape(s, ShapeHLL, "PutHLLOnce"); err != nil {
		return err
	}
	st.put(&Value{Stat: s, HLL: h, Approx: true}, true)
	return nil
}

// putCM records a count-min sketch observation.
func (st *Store) putCM(s Stat, c *CMH) error {
	if err := checkShape(s, ShapeCM, "PutCM"); err != nil {
		return err
	}
	st.put(&Value{Stat: s, CM: c, Approx: true}, false)
	return nil
}

// PutCMOnce records the sketch unless the statistic is already present.
func (st *Store) PutCMOnce(s Stat, c *CMH) error {
	if err := checkShape(s, ShapeCM, "PutCMOnce"); err != nil {
		return err
	}
	st.put(&Value{Stat: s, CM: c, Approx: true}, true)
	return nil
}

// Scalar returns the scalar value of a cardinality or distinct statistic.
func (st *Store) Scalar(s Stat) (int64, error) {
	st.mu.RLock()
	v, ok := st.m[s.Key()]
	st.mu.RUnlock()
	if !ok {
		return 0, fmt.Errorf("statistic not in store: %v", s.Key())
	}
	if s.Kind.valid() && s.Kind.Shape() != ShapeScalar {
		return 0, fmt.Errorf("statistic %v is %s-shaped, not scalar", s.Key(), s.Kind.Shape())
	}
	return v.Scalar, nil
}

// Hist returns the histogram value of a distribution statistic.
func (st *Store) Hist(s Stat) (*Histogram, error) {
	st.mu.RLock()
	v, ok := st.m[s.Key()]
	st.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("statistic not in store: %v", s.Key())
	}
	if v.Hist == nil {
		return nil, fmt.Errorf("statistic %v is not a histogram", s.Key())
	}
	return v.Hist, nil
}

// HLLSketch returns the HyperLogLog value of an HLLDistinct statistic.
func (st *Store) HLLSketch(s Stat) (*HLL, error) {
	st.mu.RLock()
	v, ok := st.m[s.Key()]
	st.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("statistic not in store: %v", s.Key())
	}
	if v.HLL == nil {
		return nil, fmt.Errorf("statistic %v is not an HLL sketch", s.Key())
	}
	return v.HLL, nil
}

// CMSketch returns the count-min value of a CMHist statistic.
func (st *Store) CMSketch(s Stat) (*CMH, error) {
	st.mu.RLock()
	v, ok := st.m[s.Key()]
	st.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("statistic not in store: %v", s.Key())
	}
	if v.CM == nil {
		return nil, fmt.Errorf("statistic %v is not a count-min sketch", s.Key())
	}
	return v.CM, nil
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
		case v.HLL != nil:
			total += v.HLL.memoryUnits()
		case v.CM != nil:
			total += v.CM.MemoryUnits()
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
		case v.HLL != nil:
			out += fmt.Sprintf("%s ≈ %d (hll 2^%d)\n", v.Stat.Label(b), v.HLL.Estimate(), v.HLL.P)
		case v.CM != nil:
			out += fmt.Sprintf("%s: ~%d buckets, total %d (cm %dx%d)\n", v.Stat.Label(b), v.CM.Spec.N, v.CM.total(), v.CM.Depth, v.CM.Width)
		default:
			out += fmt.Sprintf("%s = %d\n", v.Stat.Label(b), v.Scalar)
		}
	}
	return out
}
