package serve

import (
	"crypto/sha256"
	"fmt"
	"sync"
	"testing"

	"github.com/essential-stats/etlopt/internal/data"
	"github.com/essential-stats/etlopt/internal/workflow"
)

// charged is a table the store charges mib MiB for: 1,024 columns of
// empty rows, so it costs the test next to nothing.
func charged(mib int) *data.Table {
	return &data.Table{Attrs: make([]workflow.Attr, 1024), Rows: make([]data.Row, mib<<20/8/1024)}
}

func held(s *residentStore, key digest) bool {
	return s.take([]residentRef{{Block: 0, SHA256: key.String()}}, map[int]*data.Table{}) == nil
}

// TestResidentStoreBound: the store charges rows × columns × 8 bytes, keeps
// under residentBytes by dropping the least recently used output, and
// keeps no table over the whole bound.
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
				s.put(key, frameTable("B0"))
				up := map[int]*data.Table{}
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
