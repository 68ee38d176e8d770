package engine

import (
	"context"
	"errors"
	"testing"
	"time"

	"github.com/essential-stats/etlopt/internal/css"
	"github.com/essential-stats/etlopt/internal/faults"
	"github.com/essential-stats/etlopt/internal/workflow"
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

// TestRetryBackoffCancelPrompt cancels a run mid-backoff: a transient
// fault storm with the backoff pinned at the cap would wait most of a
// second across retries, but cancellation must surface the context error
// promptly. Run under -race: the interesting failures are racy ones.
func TestRetryBackoffCancelPrompt(t *testing.T) {
	db, cat := bigDB(2000)
	an, err := workflow.Analyze(retailGraph(), cat)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	res, err := css.Generate(an, css.DefaultOptions())
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}

	t.Run("batch", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		inj := faults.New(1, 1, 8, faults.Operator)
		e := New(an, db, nil)
		e.Faults, e.RetryMax, e.RetryBackoff = inj, 10, maxRetryBackoff
		time.AfterFunc(5*time.Millisecond, cancel)
		start := time.Now()
		_, err := e.RunPlansCtx(ctx, nil, res, observableStats(res))
		elapsed := time.Since(start)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("want context.Canceled, got %v", err)
		}
		// Sitting out even half the retry storm's backoffs (8 waits at
		// the 100ms cap per faulted block) would blow well past this.
		if elapsed > 400*time.Millisecond {
			t.Fatalf("cancellation took %v; backoff did not yield to the context", elapsed)
		}
	})
}
