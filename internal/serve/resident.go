package serve

import (
	"container/list"
	"sync"

	"github.com/essential-stats/etlopt/internal/data"
)

// residentBytes bounds one worker's store of boundary outputs. A table is
// charged rows × columns × 8 bytes, its cells' size.
const residentBytes = 128 << 20

// residentStore holds the boundary outputs a worker was asked to hold,
// keyed by the SHA-256 of the payload of the request that made them, least
// recently used first out. It is soft state: a coordinator that names an
// output the store no longer holds gets a 409 and sends the request that
// makes it again, so an eviction or a restart costs a recompute, never a
// result. The zero value is empty and ready; requests share it.
type residentStore struct {
	mu    sync.Mutex
	bytes int64
	order list.List // front = most recently used; values are *residentEntry
	byKey map[digest]*list.Element
}

type residentEntry struct {
	key  digest
	t    *data.Table
	size int64
}

func tableCells(t *data.Table) int64 { return int64(len(t.Rows)) * int64(len(t.Attrs)) }

// put stores t under key, evicting the least recently used outputs to fit,
// and reports whether it kept it: a table over the whole bound is not kept.
func (s *residentStore) put(key digest, t *data.Table) bool {
	size := 8 * tableCells(t)
	if size > residentBytes {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.byKey[key]; ok {
		s.order.MoveToFront(el)
		return true
	}
	if s.byKey == nil {
		s.byKey = make(map[digest]*list.Element)
	}
	s.byKey[key] = s.order.PushFront(&residentEntry{key: key, t: t, size: size})
	for s.bytes += size; s.bytes > residentBytes; {
		e := s.order.Remove(s.order.Back()).(*residentEntry)
		delete(s.byKey, e.key)
		s.bytes -= e.size
	}
	return true
}

// take adds the tables a request's resident refs name to upstream, and
// returns the keys of those it does not hold.
func (s *residentStore) take(refs []residentRef, upstream map[int]*data.Table) (missing []string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, ref := range refs {
		key, _ := parseDigest(ref.SHA256) // decodeRunRequest checked every one
		if el, ok := s.byKey[key]; ok {
			s.order.MoveToFront(el)
			upstream[ref.Block] = el.Value.(*residentEntry).t
		} else {
			missing = append(missing, ref.SHA256)
		}
	}
	return missing
}
