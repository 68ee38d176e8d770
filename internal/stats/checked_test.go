package stats

import (
	"errors"
	"math"
	"testing"

	"github.com/essential-stats/etlopt/internal/workflow"
)

func TestMulInt64(t *testing.T) {
	ok := []struct{ a, b, want int64 }{
		{0, math.MaxInt64, 0},
		{math.MinInt64, 0, 0},
		{3, 7, 21},
		{-4, 5, -20},
		{math.MaxInt64, 1, math.MaxInt64},
		{math.MinInt64, 1, math.MinInt64},
		{1 << 31, 1 << 31, 1 << 62},
	}
	for _, tc := range ok {
		got, err := mulInt64(tc.a, tc.b)
		if err != nil || got != tc.want {
			t.Errorf("MulInt64(%d, %d) = %d, %v; want %d", tc.a, tc.b, got, err, tc.want)
		}
	}
	bad := [][2]int64{
		{math.MaxInt64, 2},
		{2, math.MaxInt64},
		{math.MinInt64, -1},
		{-1, math.MinInt64},
		{math.MinInt64, 2},
		{1 << 32, 1 << 32},
		{-(1 << 32), 1 << 32},
	}
	for _, tc := range bad {
		if _, err := mulInt64(tc[0], tc[1]); !errors.Is(err, errOverflow) {
			t.Errorf("MulInt64(%d, %d): want ErrOverflow, got %v", tc[0], tc[1], err)
		}
	}
}

func TestAddInt64(t *testing.T) {
	ok := []struct{ a, b, want int64 }{
		{math.MaxInt64, 0, math.MaxInt64},
		{math.MaxInt64 - 1, 1, math.MaxInt64},
		{math.MinInt64, 0, math.MinInt64},
		{math.MinInt64 + 1, -1, math.MinInt64},
		{-5, 5, 0},
	}
	for _, tc := range ok {
		got, err := addInt64(tc.a, tc.b)
		if err != nil || got != tc.want {
			t.Errorf("AddInt64(%d, %d) = %d, %v; want %d", tc.a, tc.b, got, err, tc.want)
		}
	}
	bad := [][2]int64{
		{math.MaxInt64, 1},
		{1, math.MaxInt64},
		{math.MinInt64, -1},
		{-1, math.MinInt64},
	}
	for _, tc := range bad {
		if _, err := addInt64(tc[0], tc[1]); !errors.Is(err, errOverflow) {
			t.Errorf("AddInt64(%d, %d): want ErrOverflow, got %v", tc[0], tc[1], err)
		}
	}
}

func TestDotProductOverflowError(t *testing.T) {
	a := workflow.Attr{Rel: "R", Col: "k"}
	h1 := NewHistogram(a)
	h2 := NewHistogram(a)
	h1.Inc([]int64{1}, math.MaxInt64)
	h2.Inc([]int64{1}, 2)
	if _, err := DotProduct(h1, h2); !errors.Is(err, errOverflow) {
		t.Fatalf("want ErrOverflow, got %v", err)
	}
}
