package serve

import "sync"

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
// built once, by the first caller to ask for it, and kept. The map's lock is
// held only to find or make the key's entry, never while a value is built,
// so callers wait for the build of their own key and no other. A failed
// build is not kept: the next caller tries again.
type onceMap[K comparable, V any] struct {
	mu sync.Mutex
	m  map[K]*onceEntry[V]
}

type onceEntry[V any] struct {
	once sync.Once
	val  V
	err  error
}

func (o *onceMap[K, V]) get(key K, build func() (V, error)) (V, error) {
	o.mu.Lock()
	if o.m == nil {
		o.m = make(map[K]*onceEntry[V])
	}
	e := o.m[key]
	if e == nil {
		e = new(onceEntry[V])
		o.m[key] = e
	}
	o.mu.Unlock()
	e.once.Do(func() { e.val, e.err = build() })
	if e.err != nil {
		o.mu.Lock()
		if o.m[key] == e {
			delete(o.m, key)
		}
		o.mu.Unlock()
	}
	return e.val, e.err
}
