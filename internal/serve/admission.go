package serve

import (
	"context"
	"fmt"
	"sync"
	"time"
)

// DefaultSolveQueue bounds how many requests may wait for a solve slot
// when Options.MaxSolves is set and Options.SolveQueue is not.
const DefaultSolveQueue = 64

// busyError reports that the daemon shed a request: every solve slot is
// occupied and the wait queue is full. Handlers map it to a typed 429
// with a Retry-After header — load shedding is a protocol answer, not a
// server fault.
type busyError struct {
	// RetryAfter is the suggested client backoff.
	RetryAfter time.Duration
}

func (e *busyError) Error() string {
	return fmt.Sprintf("serve: solve capacity exhausted, retry after %s", e.RetryAfter)
}

// admission is the daemon's concurrent-solve limiter: a fixed number of
// solve slots plus a bounded wait queue. Requests beyond slots+queue are
// shed immediately with a busyError instead of piling onto the daemon —
// backpressure the client can see, not latency it cannot.
//
// Only actual solver executions occupy a slot. Cache hits bypass
// admission entirely, and singleflight sharers wait on the one admitted
// flight, so N identical concurrent requests still cost one slot.
type admission struct {
	slots chan struct{} // nil = unlimited

	mu       sync.Mutex
	waiting  int
	maxWait  int
	inflight int
}

// newAdmission builds a limiter; maxSolves <= 0 means unlimited (every
// acquire succeeds immediately and nothing is ever shed).
func newAdmission(maxSolves, queue int) *admission {
	a := &admission{}
	if maxSolves > 0 {
		a.slots = make(chan struct{}, maxSolves)
		if queue < 0 {
			queue = DefaultSolveQueue
		}
		a.maxWait = queue
	}
	return a
}

// acquire claims a solve slot, waiting in the bounded queue if all slots
// are busy. It returns a release function on success; a *busyError when
// the queue is full; or the context's error if cancelled while waiting.
func (a *admission) acquire(ctx context.Context) (func(), error) {
	if a.slots == nil {
		a.mu.Lock()
		a.inflight++
		a.mu.Unlock()
		return a.releaseUnlimited, nil
	}
	// Fast path: a free slot, no queueing.
	select {
	case a.slots <- struct{}{}:
		a.mu.Lock()
		a.inflight++
		a.mu.Unlock()
		return a.release, nil
	default:
	}
	a.mu.Lock()
	if a.waiting >= a.maxWait {
		a.mu.Unlock()
		return nil, &busyError{RetryAfter: time.Second}
	}
	a.waiting++
	a.mu.Unlock()
	defer func() {
		a.mu.Lock()
		a.waiting--
		a.mu.Unlock()
	}()
	select {
	case a.slots <- struct{}{}:
		a.mu.Lock()
		a.inflight++
		a.mu.Unlock()
		return a.release, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

func (a *admission) release() {
	a.mu.Lock()
	a.inflight--
	a.mu.Unlock()
	<-a.slots
}

func (a *admission) releaseUnlimited() {
	a.mu.Lock()
	a.inflight--
	a.mu.Unlock()
}

// depth reports the current wait-queue depth and in-flight solve count
// (the /metrics gauges).
func (a *admission) depth() (waiting, inflight int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.waiting, a.inflight
}
