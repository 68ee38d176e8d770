package serve

import (
	"bytes"
	"context"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestSingleflightSingleSolve proves duplicate suppression at the
// primitive: N concurrent Do calls with one key execute fn exactly once,
// deterministically — fn blocks until every caller has launched, so no
// caller can arrive after the flight lands.
func TestSingleflightSingleSolve(t *testing.T) {
	const n = 32
	var g group
	var execs, sharedCount atomic.Int64
	launched := make(chan struct{}, n)
	release := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			launched <- struct{}{}
			v, err, shared := g.Do("key", func() (any, error) {
				execs.Add(1)
				<-release
				return "solved", nil
			})
			if err != nil || v.(string) != "solved" {
				t.Errorf("Do = %v, %v", v, err)
			}
			if shared {
				sharedCount.Add(1)
			}
		}()
	}
	for i := 0; i < n; i++ {
		<-launched
	}
	// Every goroutine has launched; give them a beat to reach Do, then
	// release the single executing call.
	time.Sleep(10 * time.Millisecond)
	close(release)
	wg.Wait()
	if got := execs.Load(); got != 1 {
		t.Fatalf("fn executed %d times, want 1", got)
	}
	if got := sharedCount.Load(); got != n-1 {
		t.Fatalf("%d callers shared, want %d", got, n-1)
	}
	// The key is released after the flight: a later call runs fn again.
	_, _, shared := g.Do("key", func() (any, error) { return "again", nil })
	if shared {
		t.Fatal("post-flight call reported shared")
	}
	if execs.Load() != 1 {
		t.Fatal("post-flight call reused the old fn")
	}
}

// TestServedSolveSingleflight drives the server's solved() path the same
// way: concurrent identical requests must cost one solver execution and
// yield one set of bytes.
func TestServedSolveSingleflight(t *testing.T) {
	doc, _ := tinyWorkflow(t, 11, 600)
	srv, _ := newTestServer(t, doc, Options{})
	const n = 16
	var execs atomic.Int64
	release := make(chan struct{})
	launched := make(chan struct{}, n)
	bodies := make([][]byte, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			launched <- struct{}{}
			body, _, err := srv.solved(context.Background(), "tiny", 1, "k", func() ([]byte, error) {
				execs.Add(1)
				<-release
				return []byte(`{"x":1}`), nil
			})
			if err != nil {
				t.Errorf("solved: %v", err)
			}
			bodies[i] = body
		}(i)
	}
	for i := 0; i < n; i++ {
		<-launched
	}
	time.Sleep(10 * time.Millisecond)
	close(release)
	wg.Wait()
	if got := execs.Load(); got != 1 {
		t.Fatalf("solver executed %d times for one key, want 1", got)
	}
	for i := 1; i < n; i++ {
		if !bytes.Equal(bodies[0], bodies[i]) {
			t.Fatalf("caller %d got different bytes", i)
		}
	}
	// And the result is now cached.
	_, hit, err := srv.solved(context.Background(), "tiny", 1, "k", func() ([]byte, error) {
		t.Fatal("cached key re-solved")
		return nil, nil
	})
	if err != nil || !hit {
		t.Fatalf("cache after flight: hit=%v err=%v", hit, err)
	}
}

// TestConcurrentOptimizeRequests exercises the full HTTP path under the
// race detector: parallel optimize and estimate requests against one
// workflow, all of which must succeed with identical bodies per endpoint —
// and a later request, a cache hit, must answer the solved bytes.
func TestConcurrentOptimizeRequests(t *testing.T) {
	doc, db := tinyWorkflow(t, 11, 600)
	srv, ts := newTestServer(t, doc, Options{})
	stream := observedStream(t, doc, db)
	if resp, body := post(t, ts.URL+"/v1/observe?workflow=tiny", "application/octet-stream", stream); resp.StatusCode != http.StatusOK {
		t.Fatalf("observe: %d %s", resp.StatusCode, body)
	}

	const n = 12
	optBodies := make([][]byte, n)
	estBodies := make([][]byte, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, body := post(t, ts.URL+"/v1/optimize", "application/json", []byte(`{"workflow":"tiny"}`))
			if resp.StatusCode != http.StatusOK {
				t.Errorf("optimize %d: %d %s", i, resp.StatusCode, body)
			}
			optBodies[i] = body
			resp, body = post(t, ts.URL+"/v1/estimate", "application/json", []byte(`{"workflow":"tiny"}`))
			if resp.StatusCode != http.StatusOK {
				t.Errorf("estimate %d: %d %s", i, resp.StatusCode, body)
			}
			estBodies[i] = body
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if !bytes.Equal(optBodies[0], optBodies[i]) {
			t.Fatalf("optimize response %d differs", i)
		}
		if !bytes.Equal(estBodies[0], estBodies[i]) {
			t.Fatalf("estimate response %d differs", i)
		}
	}

	// Accounting: every request either hit the cache, solved, or shared an
	// in-flight solve.
	srv.metrics.mu.Lock()
	total := srv.metrics.cacheHits + srv.metrics.solves + srv.metrics.shared
	solves := srv.metrics.solves
	srv.metrics.mu.Unlock()
	if total != 2*n {
		t.Fatalf("request accounting: hits+solves+shared = %d, want %d", total, 2*n)
	}
	if solves < 2 {
		t.Fatalf("solves = %d, want at least one per endpoint", solves)
	}

	// A cache hit answers the bytes the solve that filled it did.
	for _, c := range []struct {
		path string
		want []byte
	}{{"/v1/optimize", optBodies[0]}, {"/v1/estimate", estBodies[0]}} {
		resp, body := post(t, ts.URL+c.path, "application/json", []byte(`{"workflow":"tiny"}`))
		if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != "hit" {
			t.Fatalf("%s after the solves: %d, X-Cache %q", c.path, resp.StatusCode, resp.Header.Get("X-Cache"))
		}
		if !bytes.Equal(body, c.want) {
			t.Fatalf("%s: the cached body differs from the solved one", c.path)
		}
	}
}
