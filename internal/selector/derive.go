package selector

import (
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
	// remaining[c] counts the inputs of candidate set c not yet computable
	// (closure) or finalized (cost pass); acc[c] aggregates the cost of the
	// finalized ones.
	remaining []int32
	acc       []float64
	// dist is the cost pass's result, valid until the next pass.
	dist []float64
	done []bool
	heap []heapItem
	// closed is the closure buffer of the greedy and budget loops.
	closed []bool
	// seen marks the statistics a derivation walk visited; stack lists them
	// (closure: the propagation queue) and leaves collects the walk's result.
	seen          []bool
	stack, leaves []int32
}

func newScratch(u *Universe) *scratch {
	n, nc := len(u.Stats), u.numCSS()
	return &scratch{
		u:         u,
		remaining: make([]int32, nc),
		acc:       make([]float64, nc),
		dist:      make([]float64, n),
		done:      make([]bool, n),
		closed:    make([]bool, n),
		seen:      make([]bool, n),
	}
}

// closure is Universe.Closure into the caller's buffer, which it returns.
func (s *scratch) closure(observed, computable []bool) []bool {
	u := s.u
	for c := range s.remaining {
		s.remaining[c] = u.inOff[c+1] - u.inOff[c]
	}
	copy(computable, observed)
	queue := s.stack[:0]
	for i, on := range observed {
		if on {
			queue = append(queue, int32(i))
		}
	}
	for len(queue) > 0 {
		i := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, c := range u.usedBy(i) {
			t := u.cssStat[c]
			if computable[t] {
				continue
			}
			if s.remaining[c]--; s.remaining[c] == 0 {
				computable[t] = true
				queue = append(queue, t)
			}
		}
	}
	s.stack = queue[:0]
	return computable
}

// deriveCosts computes, for every statistic, the cheapest derivation cost
// under the given leaf pricing: free[i] statistics cost 0 (already
// observed/computable), banned[i] statistics cannot be observed, all other
// observable statistics cost u.Cost[i], and unobservable statistics can
// only be reached through a CSS. The computation is Knuth's generalization
// of Dijkstra's algorithm to monotone AND/OR graphs, which handles the
// cyclic derivations produced by union–division correctly.
// obs overrides the observability mask when non-nil (the Section 6.1
// budget planner widens observability for re-ordered later runs). The
// result is s.dist, overwritten by the next pass.
func (s *scratch) deriveCosts(obs, free, banned []bool, mode deriveMode) []float64 {
	u := s.u
	if obs == nil {
		obs = u.Observable
	}
	dist := s.dist
	for c := range s.remaining {
		s.remaining[c] = u.inOff[c+1] - u.inOff[c]
		s.acc[c] = 0
	}
	s.heap = s.heap[:0]
	for i := range dist {
		s.done[i] = false
		switch {
		case free != nil && free[i]:
			dist[i] = 0
		case obs[i] && (banned == nil || !banned[i]):
			dist[i] = u.Cost[i]
		default:
			dist[i] = math.Inf(1)
		}
		if !math.IsInf(dist[i], 1) {
			s.pushHeap(heapItem{idx: int32(i), cost: dist[i]})
		}
	}
	for len(s.heap) > 0 {
		it := s.popHeap()
		i := it.idx
		if s.done[i] || it.cost > dist[i] {
			continue
		}
		s.done[i] = true
		for _, c := range u.usedBy(i) {
			t := u.cssStat[c]
			if s.done[t] {
				continue
			}
			switch mode {
			case deriveSum:
				s.acc[c] += dist[i]
			case deriveMax:
				if dist[i] > s.acc[c] {
					s.acc[c] = dist[i]
				}
			}
			if s.remaining[c]--; s.remaining[c] == 0 && s.acc[c] < dist[t] {
				dist[t] = s.acc[c]
				s.pushHeap(heapItem{idx: t, cost: dist[t]})
			}
		}
	}
	return dist
}

// walkDerivation extracts, for statistic target, a concrete cheapest
// derivation from a deriveSum cost vector (so one cost pass serves many
// targets): the not-yet-free observable statistics it observes, ascending.
// ok is false when the target is underivable under the pricing. The leaves
// are s.leaves, overwritten by the next walk.
func (s *scratch) walkDerivation(target int32, dist []float64, obs, free, banned []bool) (leaves []int32, cost float64, ok bool) {
	if obs == nil {
		obs = s.u.Observable
	}
	if math.IsInf(dist[target], 1) {
		return nil, 0, false
	}
	s.stack, s.leaves = s.stack[:0], s.leaves[:0]
	s.walk(target, dist, obs, free, banned)
	for _, i := range s.stack {
		s.seen[i] = false
	}
	slices.Sort(s.leaves)
	return s.leaves, dist[target], true
}

func (s *scratch) walk(i int32, dist []float64, obs, free, banned []bool) {
	if s.seen[i] {
		return
	}
	s.seen[i] = true
	s.stack = append(s.stack, i)
	if free != nil && free[i] {
		return
	}
	u := s.u
	observable := obs[i] && (banned == nil || !banned[i])
	// Prefer direct observation when it is the winning price.
	if observable && u.Cost[i] <= dist[i]+1e-12 {
		s.leaves = append(s.leaves, i)
		return
	}
	// Otherwise find a CSS achieving the winning price.
	for c, to := u.css(i); c < to; c++ {
		var sum float64
		for _, j := range u.in(c) {
			sum += dist[j] // +Inf when j is underivable
		}
		if sum <= dist[i]+1e-9 {
			for _, j := range u.in(c) {
				s.walk(j, dist, obs, free, banned)
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
