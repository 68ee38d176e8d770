package engine

import (
	"context"
	"errors"
	"testing"
	"time"
)

// TestSleepSaturatesAtCap pins the backoff overflow fix: `backoff <<
// attempt` overflows to a non-positive duration for large attempt counts,
// which fired the timer instantly and turned the capped backoff into a hot
// retry loop. The doubling must saturate at the cap instead.
func TestSleepSaturatesAtCap(t *testing.T) {
	for _, attempt := range []int{62, 63, 64, 200} {
		start := time.Now()
		if err := Backoff(context.Background(), time.Millisecond, attempt); err != nil {
			t.Fatalf("Backoff(%d): %v", attempt, err)
		}
		if d := time.Since(start); d < maxRetryBackoff/2 {
			t.Fatalf("Backoff(%d) returned after %v; overflowed past the %v cap", attempt, d, maxRetryBackoff)
		}
	}
}

// TestSleepCancelledBeforeWait: an already-cancelled context returns the
// context error without arming the timer at all.
func TestSleepCancelledBeforeWait(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	err := Backoff(ctx, maxRetryBackoff, 0)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Backoff on cancelled context = %v, want context.Canceled", err)
	}
	if d := time.Since(start); d > maxRetryBackoff/2 {
		t.Fatalf("cancelled sleep still waited %v", d)
	}
}

// TestBackoffCancelledMidWait: a context cancelled while Backoff waits out
// its delay returns the context error at once, not at the timer. Run under
// -race: the interesting failures are racy ones.
func TestBackoffCancelledMidWait(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	time.AfterFunc(5*time.Millisecond, cancel)
	start := time.Now()
	err := Backoff(ctx, maxRetryBackoff, 0)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Backoff cancelled mid-wait = %v, want context.Canceled", err)
	}
	if d := time.Since(start); d > maxRetryBackoff/2 {
		t.Fatalf("Backoff cancelled after 5ms still waited %v of its %v", d, maxRetryBackoff)
	}
}
