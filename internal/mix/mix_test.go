package mix

import "testing"

// Value is Tuple's one-value case, and the hash is the splitmix64 rounds it
// documents over the process seed: order matters and so does arity.
func TestTupleRounds(t *testing.T) {
	for _, v := range []int64{0, 1, -1, 1 << 62, -(1 << 40)} {
		if Value(v) != Tuple([]int64{v}) {
			t.Fatalf("Value(%d) differs from Tuple of one value", v)
		}
	}
	if Tuple(nil) != seed {
		t.Fatal("the empty tuple should hash to the seed")
	}
	if Tuple([]int64{1, 256}) == Tuple([]int64{256, 1}) || Tuple([]int64{0}) == Tuple([]int64{0, 0}) {
		t.Fatal("order or arity does not change the hash")
	}
}

func TestTableSize(t *testing.T) {
	for n, want := range []int{2, 2, 4, 8, 8, 16, 16, 16, 16, 32} {
		if got := TableSize(n); got != want {
			t.Fatalf("TableSize(%d) = %d, want %d", n, got, want)
		}
	}
}
