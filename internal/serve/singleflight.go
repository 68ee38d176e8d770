package serve

import (
	"container/list"
	"sync"
)

// group is a minimal duplicate-suppression primitive (the well-known
// singleflight pattern, hand-rolled because the repository deliberately has
// no dependencies): concurrent Do calls with the same key run fn once and
// all receive its result. Solving a block's join order or a statistics
// selection is pure CPU over immutable inputs, so N identical concurrent
// requests must cost one solve, not N.
type group struct {
	mu sync.Mutex
	m  map[string]*call
}

type call struct {
	wg  sync.WaitGroup
	val any
	err error
}

// Do runs fn under key, suppressing duplicates: callers that arrive while
// an identical call is in flight wait for it and share its result. The
// third return reports whether this caller shared another call's result
// (true) or executed fn itself (false).
func (g *group) Do(key string, fn func() (any, error)) (any, error, bool) {
	g.mu.Lock()
	if g.m == nil {
		g.m = make(map[string]*call)
	}
	if c, ok := g.m[key]; ok {
		g.mu.Unlock()
		c.wg.Wait()
		return c.val, c.err, true
	}
	c := &call{}
	c.wg.Add(1)
	g.m[key] = c
	g.mu.Unlock()

	c.val, c.err = fn()
	c.wg.Done()

	g.mu.Lock()
	delete(g.m, key)
	g.mu.Unlock()
	return c.val, c.err, false
}

// onceMap is the keep-the-result sibling of group: each key's value is
// built once, by the first caller to ask for it, and kept — all of them, or,
// with max set, the max most recently asked for, the least recently used
// dropped once a build completes. The map's lock is held only to find or
// make the key's entry, and to keep the bound after a build, never while a
// value is built, so callers wait for the build of their own key and no
// other. A failed build is not kept: the next caller tries again; nor is a
// dropped one, whose callers already waiting still get its value.
type onceMap[K comparable, V any] struct {
	max   int
	mu    sync.Mutex
	m     map[K]*onceEntry[K, V]
	order list.List // front = most recently asked for; values are *onceEntry, when max is set
}

type onceEntry[K comparable, V any] struct {
	key  K
	once sync.Once
	val  V
	err  error
	el   *list.Element
}

func (o *onceMap[K, V]) get(key K, build func() (V, error)) (V, error) {
	o.mu.Lock()
	if o.m == nil {
		o.m = make(map[K]*onceEntry[K, V])
	}
	e := o.m[key]
	if e == nil {
		e = &onceEntry[K, V]{key: key}
		o.m[key] = e
	}
	if o.max > 0 {
		if e.el == nil {
			e.el = o.order.PushFront(e)
		} else {
			o.order.MoveToFront(e.el)
		}
	}
	o.mu.Unlock()
	e.once.Do(func() { e.val, e.err = build() })
	// A key that failed is dropped, and one that did not makes room for
	// itself: a failing key costs the others nothing.
	if e.err != nil || o.max > 0 {
		o.mu.Lock()
		if e.err != nil && o.m[key] == e {
			o.drop(e)
		}
		for o.max > 0 && len(o.m) > o.max {
			o.drop(o.order.Back().Value.(*onceEntry[K, V]))
		}
		o.mu.Unlock()
	}
	return e.val, e.err
}

// drop forgets a kept entry; the caller holds the lock.
func (o *onceMap[K, V]) drop(e *onceEntry[K, V]) {
	delete(o.m, e.key)
	if e.el != nil {
		o.order.Remove(e.el)
		e.el = nil
	}
}
