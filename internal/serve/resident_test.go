package serve

import (
	"crypto/sha256"
	"fmt"
	"sync"
	"testing"

	"github.com/essential-stats/etlopt/internal/data"
)

// charged is a late table the store charges mib MiB for: 1,024 inputs that
// share one row index, so it costs the test a KiB a MiB.
func charged(mib int) *data.Late {
	in := data.LateInput{Idx: make([]int32, mib<<20/4/1024)}
	t := &data.Late{N: len(in.Idx), Ins: make([]data.LateInput, 1024)}
	for i := range t.Ins {
		t.Ins[i] = in
	}
	return t
}

func held(s *residentStore, key digest) bool {
	return s.take([]residentRef{{Block: 0, SHA256: key.String()}}, map[int]*data.Late{}) == nil
}

// TestLateBytes: an output is charged 4 bytes a row for each row index and
// 8 a cell for each plain column, never for the source cells it names.
func TestLateBytes(t *testing.T) {
	src := frameTable("S", data.Row{1, 2}, data.Row{3, 4}, data.Row{5, 6})
	l := &data.Late{N: 5, Ins: []data.LateInput{{Src: src, Idx: []int32{0, 1, 2, 2, 1}}}, Cols: []data.LateCol{
		{In: 0, Col: 0}, {In: 0, Col: 1}, {In: -1, Vals: []int64{7, 8, 9, 10, 11}},
	}}
	if got, want := lateBytes(l), int64(5*4+5*8); got != want {
		t.Errorf("charged %d bytes, want %d", got, want)
	}
	if got, want := lateBytes(lateOf(src)), int64(3*2*8); got != want {
		t.Errorf("an all-plain table charged %d bytes, want %d (its cells)", got, want)
	}
}

// TestResidentStoreBound: the store charges what an output's late form
// holds, keeps under residentBytes by dropping the least recently used
// output, and keeps no output over the whole bound.
func TestResidentStoreBound(t *testing.T) {
	var s residentStore
	a, b, c, huge := sha256.Sum256([]byte("a")), sha256.Sum256([]byte("b")), sha256.Sum256([]byte("c")), sha256.Sum256([]byte("huge"))
	s.put(a, charged(50))
	s.put(b, charged(50))
	if !held(&s, a) { // a is now the more recently used
		t.Fatal("lost an output under the bound")
	}
	s.put(c, charged(50))
	if !held(&s, a) || held(&s, b) || !held(&s, c) {
		t.Errorf("after a third 50 MiB output: a %v, b %v, c %v; want b evicted", held(&s, a), held(&s, b), held(&s, c))
	}
	if s.bytes != 100<<20 {
		t.Errorf("charged %d bytes, want %d", s.bytes, 100<<20)
	}
	if s.put(huge, charged(residentBytes>>20+1)) {
		t.Error("put reports an output over the whole bound kept")
	}
	if held(&s, huge) || !held(&s, a) || !held(&s, c) {
		t.Error("an output over the whole bound displaced the store")
	}
}

// TestResidentStoreConcurrent shares one store among requests that keep
// and take outputs at once (run it under -race).
func TestResidentStoreConcurrent(t *testing.T) {
	var s residentStore
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				key := digest(sha256.Sum256([]byte(fmt.Sprint(g, i%10))))
				s.put(key, lateOf(frameTable("B0")))
				up := map[int]*data.Late{}
				if missing := s.take([]residentRef{{Block: 0, SHA256: key.String()}}, up); missing != nil || up[0] == nil {
					t.Errorf("goroutine %d: a kept output is missing", g)
					return
				}
			}
		}()
	}
	wg.Wait()
	if len(s.byKey) != 80 {
		t.Errorf("%d outputs held, want 80", len(s.byKey))
	}
}
