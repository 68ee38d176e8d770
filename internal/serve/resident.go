package serve

import (
	"container/list"
	"sync"

	"github.com/essential-stats/etlopt/internal/data"
)

// residentBytes bounds one worker's store of boundary outputs. An output is
// charged the bytes its late form holds: 4 a row for each row index, 8 a
// cell for each column no source relation holds.
const residentBytes = 128 << 20

// residentStore holds the boundary outputs a worker was asked to hold, in
// the late form the block made them in, keyed by the SHA-256 of the payload
// of the request that made them, least recently used first out. It is soft
// state: a coordinator that names an output the store no longer holds gets
// a 409 and sends the request that makes it again, so an eviction or a
// restart costs a recompute, never a result. Requests share it.
type residentStore struct {
	max   int64 // the bytes it may hold (residentBytes; tests lower it)
	mu    sync.Mutex
	bytes int64
	order list.List // front = most recently used; values are *residentEntry
	byKey map[digest]*list.Element
}

type residentEntry struct {
	key  digest
	t    *data.Late
	size int64
}

// lateBytes is what a late table holds of its own: its row indexes and its
// plain columns' values. The source relations it reads are the worker's
// data, charged to no output.
func lateBytes(t *data.Late) int64 {
	var n int64
	for _, in := range t.Ins {
		n += 4 * int64(len(in.Idx))
	}
	for _, c := range t.Cols {
		n += 8 * int64(len(c.Vals))
	}
	return n
}

// put stores t under key, evicting the least recently used outputs to fit,
// and reports whether it kept it: an output over the whole bound is not
// kept, and its worker sends it instead.
func (s *residentStore) put(key digest, t *data.Late) bool {
	size := lateBytes(t)
	if size > s.max {
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
	for s.bytes += size; s.bytes > s.max; {
		e := s.order.Remove(s.order.Back()).(*residentEntry)
		delete(s.byKey, e.key)
		s.bytes -= e.size
	}
	return true
}

// take adds the outputs a request's resident refs name to held, and returns
// the keys of those it does not hold.
func (s *residentStore) take(refs []residentRef, held map[int]*data.Late) (missing []string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, ref := range refs {
		key, _ := parseDigest(ref.SHA256) // decodeRunRequest checked every one
		if el, ok := s.byKey[key]; ok {
			s.order.MoveToFront(el)
			held[ref.Block] = el.Value.(*residentEntry).t
		} else {
			missing = append(missing, ref.SHA256)
		}
	}
	return missing
}
