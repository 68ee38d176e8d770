package selector

import (
	"cmp"
	"math"
	"slices"
)

// deriveMode selects how the cost of an AND-node (a CSS needing all its
// inputs) is aggregated from its inputs.
type deriveMode int

const (
	// deriveSum prices a CSS at the sum of its input derivation costs. It
	// over-counts statistics shared between branches, so it is an upper
	// bound on the cheapest derivation — suitable for the greedy heuristic.
	deriveSum deriveMode = iota
	// deriveMax prices a CSS at the maximum input derivation cost. Because
	// any real derivation pays at least its most expensive leaf, this is a
	// valid lower bound — suitable for branch-and-bound pruning.
	deriveMax
)

// scratch holds the work arrays of one solve over a universe, allocated
// once and reused by every closure, cost pass and derivation walk of the
// solve. It is not safe for concurrent use; the universe it reads is.
type scratch struct {
	u *Universe
	// byCost lists the statistics with a finite observation cost, cheapest
	// first (ties by index), and required marks S_C; both are fixed for the
	// solve.
	byCost   []int32
	required []bool

	// The current cost pass (see deriveCosts): its pricing, and the epoch
	// that numbers it. statAt[i] == epoch when dist[i] and done[i] belong
	// to this pass, cssAt[c] == epoch when remaining[c] and acc[c] do;
	// anything else is stale and reads as its initial value.
	obs, free, banned []bool
	mode              deriveMode
	epoch             uint32
	statAt, cssAt     []uint32
	// remaining[c] counts the inputs of candidate set c not yet settled and
	// acc[c] aggregates the prices of the settled ones; dist[i] is the best
	// price found for statistic i, final once done[i].
	remaining []int32
	acc       []float64
	dist      []float64
	done      []bool
	// The frontier of unsettled prices: heap holds the prices candidate
	// sets derived, and byCost[next:] the leaf prices not yet taken.
	heap []heapItem
	next int
	// pops counts the entries the passes took off the frontier, stale ones
	// included: the noise-free measure of their work.
	pops int

	// closed is the closure buffer of the greedy and budget loops.
	closed []bool
	// seen marks the statistics a derivation walk visited; stack lists them
	// (closure: the propagation queue) and leaves collects the walk's result.
	seen          []bool
	stack, leaves []int32
}

func newScratch(u *Universe) *scratch {
	n, nc := len(u.Stats), u.numCSS()
	s := &scratch{
		u:         u,
		required:  make([]bool, n),
		statAt:    make([]uint32, n),
		cssAt:     make([]uint32, nc),
		remaining: make([]int32, nc),
		acc:       make([]float64, nc),
		dist:      make([]float64, n),
		done:      make([]bool, n),
		closed:    make([]bool, n),
		seen:      make([]bool, n),
	}
	for _, r := range u.Required {
		s.required[r] = true
	}
	for i, c := range u.Cost {
		if !math.IsInf(c, 1) {
			s.byCost = append(s.byCost, int32(i))
		}
	}
	slices.SortFunc(s.byCost, func(a, b int32) int {
		return cmp.Or(cmp.Compare(u.Cost[a], u.Cost[b]), cmp.Compare(a, b))
	})
	return s
}

// closure is Universe.closure into the caller's buffer, which it returns.
func (s *scratch) closure(observed, computable []bool) []bool {
	clear(computable)
	for i, on := range observed {
		if on {
			s.extend(computable, int32(i))
		}
	}
	return computable
}

// extend adds statistic i to the closure closed and propagates it: a
// candidate set whose inputs are now all computable makes its statistic
// computable in turn. It touches only the candidate sets the newly
// computable statistics are inputs of, so a branch-and-bound child's
// closure is its parent's plus one statistic's propagation.
func (s *scratch) extend(closed []bool, i int32) {
	if closed[i] {
		return
	}
	u := s.u
	closed[i] = true
	queue := append(s.stack[:0], i)
	for len(queue) > 0 {
		i := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, c := range u.usedBy(i) {
			t := u.cssStat[c]
			if closed[t] || slices.ContainsFunc(u.in(c), func(j int32) bool { return !closed[j] }) {
				continue
			}
			closed[t] = true
			queue = append(queue, t)
		}
	}
	s.stack = queue[:0]
}

// deriveCosts starts a cost pass: the cheapest derivation cost of every
// statistic under the given leaf pricing. free[i] statistics cost 0
// (already observed/computable; free must be closed under the candidate
// sets, as a closure is), banned[i] statistics cannot be observed, all
// other observable statistics cost u.Cost[i], and unobservable statistics
// can only be reached through a CSS. The computation is Knuth's
// generalization of Dijkstra's algorithm to monotone AND/OR graphs, which
// handles the cyclic derivations produced by union–division correctly.
// obs overrides the observability mask when non-nil (the Section 6.1
// budget planner widens observability for re-ordered later runs).
//
// The pass is goal-directed: starting it settles nothing, and each read —
// cost, cheapestRequired, walkDerivation — settles statistics in price
// order only until the values it returns are final. Its setup is constant:
// free statistics are settled at 0 without being visited, leaf prices are
// read off byCost instead of seeding the heap, and the per-statistic and
// per-candidate-set state of earlier passes is invalidated by the epoch.
// The pass lasts until the next deriveCosts.
func (s *scratch) deriveCosts(obs, free, banned []bool, mode deriveMode) {
	if obs == nil {
		obs = s.u.Observable
	}
	s.obs, s.free, s.banned, s.mode = obs, free, banned, mode
	s.heap, s.next = s.heap[:0], 0
	if s.epoch++; s.epoch == 0 {
		// Wrapped: clear the stamps so none matches a later pass.
		clear(s.statAt)
		clear(s.cssAt)
		s.epoch = 1
	}
}

func (s *scratch) isFree(i int32) bool { return s.free != nil && s.free[i] }

// observes reports whether the pass's pricing lets statistic i be observed.
func (s *scratch) observes(i int32) bool {
	return s.obs[i] && (s.banned == nil || !s.banned[i])
}

// settled reports whether statistic i's price is final.
func (s *scratch) settled(i int32) bool {
	return s.isFree(i) || s.statAt[i] == s.epoch && s.done[i]
}

// price returns statistic i's price: final once settled, before that an
// upper bound no lower than the frontier.
func (s *scratch) price(i int32) float64 {
	switch {
	case s.isFree(i):
		return 0
	case s.statAt[i] == s.epoch:
		return s.dist[i]
	case s.observes(i):
		return s.u.Cost[i]
	}
	return math.Inf(1)
}

// touch makes statistic i's state belong to the current pass.
func (s *scratch) touch(i int32) {
	if s.statAt[i] != s.epoch {
		s.dist[i], s.done[i] = s.price(i), false
		s.statAt[i] = s.epoch
	}
}

// nextLeaf advances the byCost cursor past statistics the pass does not
// observe at their cost and returns the next one, if any.
func (s *scratch) nextLeaf() (int32, bool) {
	for ; s.next < len(s.byCost); s.next++ {
		if i := s.byCost[s.next]; !s.isFree(i) && s.observes(i) {
			return i, true
		}
	}
	return 0, false
}

// frontier returns a lower bound on every unsettled price: the cheaper of
// the heap's minimum and the next leaf price (+Inf when both are gone).
func (s *scratch) frontier() float64 {
	f := math.Inf(1)
	if len(s.heap) > 0 {
		f = s.heap[0].cost
	}
	if i, ok := s.nextLeaf(); ok && s.u.Cost[i] < f {
		f = s.u.Cost[i]
	}
	return f
}

// settleNext settles the cheapest unsettled statistic and propagates its
// price into the candidate sets it is an input of. ok is false once the
// frontier is empty: every statistic still unsettled is underivable.
func (s *scratch) settleNext() (settled int32, ok bool) {
	u := s.u
	for {
		var it heapItem
		if leaf, ok := s.nextLeaf(); ok && (len(s.heap) == 0 || u.Cost[leaf] <= s.heap[0].cost) {
			s.next++
			it = heapItem{idx: leaf, cost: u.Cost[leaf]}
		} else if len(s.heap) > 0 {
			it = s.popHeap()
		} else {
			return -1, false
		}
		s.pops++
		i := it.idx
		if s.settled(i) || it.cost > s.price(i) {
			continue
		}
		s.touch(i)
		s.done[i] = true
		for _, c := range u.usedBy(i) {
			t := u.cssStat[c]
			if s.settled(t) {
				continue
			}
			if s.cssAt[c] != s.epoch {
				// Free inputs are settled at 0 and never visited: count
				// only the others.
				var n int32
				for _, j := range u.in(c) {
					if !s.isFree(j) {
						n++
					}
				}
				s.remaining[c], s.acc[c], s.cssAt[c] = n, 0, s.epoch
			}
			switch s.mode {
			case deriveSum:
				s.acc[c] += s.dist[i]
			case deriveMax:
				if s.dist[i] > s.acc[c] {
					s.acc[c] = s.dist[i]
				}
			}
			if s.remaining[c]--; s.remaining[c] == 0 && s.acc[c] < s.price(t) {
				s.touch(t)
				s.dist[t] = s.acc[c]
				s.pushHeap(heapItem{idx: t, cost: s.dist[t]})
			}
		}
		return i, true
	}
}

// settleThrough settles every statistic priced at most limit.
func (s *scratch) settleThrough(limit float64) {
	for s.frontier() <= limit {
		if _, ok := s.settleNext(); !ok {
			return
		}
	}
}

// cost returns statistic i's final price, +Inf when no derivation avoids
// the banned statistics, settling the pass as far as i.
func (s *scratch) cost(i int32) float64 {
	for !s.settled(i) {
		if _, ok := s.settleNext(); !ok {
			return math.Inf(1)
		}
	}
	return s.price(i)
}

// cheapestRequired returns the uncovered (not free) required statistic
// with the lowest final price, ties broken on the lower index, or -1 when
// the pass completes without settling one: none is derivable. The first
// required statistic to settle has the lowest price, and settling through
// that price settles every statistic tied with it.
func (s *scratch) cheapestRequired() int32 {
	var low float64
	for {
		i, ok := s.settleNext()
		if !ok {
			return -1
		}
		if s.required[i] {
			low = s.dist[i]
			break
		}
	}
	s.settleThrough(low)
	best := int32(-1)
	for _, r := range s.u.Required {
		if !s.isFree(r) && s.settled(r) && s.price(r) == low && (best < 0 || r < best) {
			best = r
		}
	}
	return best
}

// walkDerivation extracts, for statistic target, a concrete cheapest
// derivation under a deriveSum pass: the not-yet-free observable
// statistics it observes, ascending. ok is false when the target is
// underivable under the pricing. The walk settles the pass as far as the
// prices it compares, so it returns what it would after a complete pass.
// The leaves are s.leaves, overwritten by the next walk.
func (s *scratch) walkDerivation(target int32) (leaves []int32, cost float64, ok bool) {
	if cost = s.cost(target); math.IsInf(cost, 1) {
		return nil, 0, false
	}
	s.stack, s.leaves = s.stack[:0], s.leaves[:0]
	s.walk(target)
	for _, i := range s.stack {
		s.seen[i] = false
	}
	slices.Sort(s.leaves)
	return s.leaves, cost, true
}

// walk visits statistic i, whose price is final: the target was settled by
// cost, and the inputs of a candidate set the walk takes are priced within
// the tolerance its statistic settled through.
func (s *scratch) walk(i int32) {
	if s.seen[i] {
		return
	}
	s.seen[i] = true
	s.stack = append(s.stack, i)
	if s.isFree(i) {
		return
	}
	u := s.u
	d := s.price(i)
	// Every price the tests below can accept is final from here on; a
	// price still unsettled is above the frontier, so above the tolerance
	// too, before and after the rest of the pass.
	s.settleThrough(d + 1e-9)
	observable := s.observes(i)
	// Prefer direct observation when it is the winning price.
	if observable && u.Cost[i] <= d+1e-12 {
		s.leaves = append(s.leaves, i)
		return
	}
	// Otherwise find a CSS achieving the winning price.
	for c, to := u.css(i); c < to; c++ {
		var sum float64
		for _, j := range u.in(c) {
			sum += s.price(j) // +Inf when j is underivable
		}
		if sum <= d+1e-9 {
			for _, j := range u.in(c) {
				s.walk(j)
			}
			return
		}
	}
	// Fall back to direct observation even at a worse price (can only
	// happen through floating-point ties).
	if observable {
		s.leaves = append(s.leaves, i)
	}
}

type heapItem struct {
	idx  int32
	cost float64
}

// pushHeap and popHeap keep s.heap a binary min-heap on cost, with the sift
// order of container/heap and none of its interface boxing.
func (s *scratch) pushHeap(it heapItem) {
	h := append(s.heap, it)
	for j := len(h) - 1; j > 0; {
		parent := (j - 1) / 2
		if h[j].cost >= h[parent].cost {
			break
		}
		h[j], h[parent] = h[parent], h[j]
		j = parent
	}
	s.heap = h
}

func (s *scratch) popHeap() heapItem {
	h := s.heap
	n := len(h) - 1
	h[0], h[n] = h[n], h[0]
	for i := 0; ; {
		j := 2*i + 1
		if j >= n {
			break
		}
		if r := j + 1; r < n && h[r].cost < h[j].cost {
			j = r
		}
		if h[j].cost >= h[i].cost {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
	s.heap = h[:n]
	return h[n]
}
