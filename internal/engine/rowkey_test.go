package engine

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/essential-stats/etlopt/internal/batch"
)

// TestKeySetModel holds keySet to a map model over 200 seeds: arity 0–4,
// tuples drawn from small domains (heavy duplication), from extreme values,
// or all distinct with exactly as many tuples as the set was sized for (its
// fullest load). Every add must report first-seen exactly as the model
// does, and the set must end with the model's count and its tuples in
// first-seen order.
func TestKeySetModel(t *testing.T) {
	extremes := []int64{0, -1, 1, math.MinInt64, math.MaxInt64, 1 << 32, -(1 << 32)}
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		arity := rng.Intn(5)
		rows, dom := rng.Intn(2000), 1+rng.Intn(6)
		draw := func(i, c int) int64 { return int64(rng.Intn(dom)) }
		shape := "small domains"
		switch seed % 3 {
		case 1:
			shape = "extremes"
			draw = func(i, c int) int64 { return extremes[rng.Intn(len(extremes))] }
		case 2:
			// All distinct: the first column counts rows, shifted so that
			// every value agrees in its low 20 bits (a table indexed by the
			// raw low bits would put them all in one cell); the rest are
			// noise.
			shape = "all distinct"
			draw = func(i, c int) int64 {
				if c == 0 {
					return int64(i) << 20
				}
				return rng.Int63()
			}
			if arity == 0 {
				rows = min(rows, 1)
			}
		}
		a := batch.GetArena()
		s := newKeySet(arity, rows, a)
		model := map[string]bool{}
		var order [][]int64
		tuple := make([]int64, arity)
		for i := 0; i < rows; i++ {
			for c := range tuple {
				tuple[c] = draw(i, c)
			}
			key := fmt.Sprint(tuple)
			first := !model[key]
			if got := s.add(tuple); got != first {
				t.Fatalf("seed %d (%s, arity %d): add(%v) = %v, model says first seen %v", seed, shape, arity, tuple, got, first)
			}
			if first {
				model[key] = true
				order = append(order, slices.Clone(tuple))
			}
		}
		if shape == "all distinct" && len(order) != rows {
			t.Fatalf("seed %d: all-distinct input made %d tuples of %d", seed, len(order), rows)
		}
		if s.len() != len(order) {
			t.Fatalf("seed %d (%s, arity %d): len %d, model %d", seed, shape, arity, s.len(), len(order))
		}
		for k, want := range order {
			if got := s.tuples[k*arity : (k+1)*arity]; !slices.Equal(got, want) {
				t.Fatalf("seed %d (%s, arity %d): tuple %d = %v, model's first-seen order has %v", seed, shape, arity, k, got, want)
			}
		}
		batch.PutArena(a)
	}
}
