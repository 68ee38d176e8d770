package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"github.com/essential-stats/etlopt/internal/data"
	"github.com/essential-stats/etlopt/internal/faults"
	"github.com/essential-stats/etlopt/internal/physical"
	"github.com/essential-stats/etlopt/internal/stats"
)

// The block scheduler under dispatch, without HTTP: loopDispatcher is an
// in-memory BlockDispatcher that does what internal/serve's worker does —
// build an engine from the DispatchSpec the scheduler hands it, run one
// block with RunBlockCtx, keep the outputs the spec says to hold — so every
// placement behaviour (ordering, failure reporting, fallback, the metrics
// shard, held outputs) is testable against the local run of the same
// multi-block fixture. The fixture's blocks 0 and 1 feed block 2, the
// sink's, so both are held.

// loopDispatcher loops dispatched blocks back to RunBlockCtx.
type loopDispatcher struct {
	f     *multiBlockFixture
	slots int
	// maxRows is the per-block worker cap (serve.RunSpec.MaxRows).
	maxRows int64
	// openErr, when set, fails DispatchRun.
	openErr error
	// before runs ahead of a block's execution; an error it returns is the
	// RunBlock result. after may alter the outcome of a successful block.
	before func(block int) error
	after  func(block int, rb *RemoteBlock)

	mu          sync.Mutex
	started     []int
	runs        map[int]int
	inflight    int
	maxInflight int
	spec        *DispatchSpec
	// held is the session's held outputs, in the late form a real
	// dispatcher's workers keep them in.
	held map[int]*data.Late
}

func (d *loopDispatcher) DispatchRun(_ context.Context, spec *DispatchSpec) (RunDispatch, error) {
	if d.openErr != nil {
		return nil, d.openErr
	}
	d.mu.Lock()
	d.spec = spec
	d.held = map[int]*data.Late{}
	d.mu.Unlock()
	return d, nil
}

func (d *loopDispatcher) Slots() int                               { return d.slots }
func (d *loopDispatcher) Summary() (int64, int64, int64, []string) { return 0, 0, 0, nil }

func (d *loopDispatcher) RunBlock(ctx context.Context, block int, upstream map[int]*data.Table) (*RemoteBlock, error) {
	d.mu.Lock()
	d.started = append(d.started, block)
	d.inflight++
	d.maxInflight = max(d.maxInflight, d.inflight)
	spec := d.spec
	held := make(map[int]*data.Late, len(upstream))
	for u := range upstream {
		if held[u] = d.held[u]; held[u] == nil {
			d.mu.Unlock()
			return nil, fmt.Errorf("loop: block %d reads block %d, which this session does not hold: %w", block, u, ErrWorkersLost)
		}
	}
	d.mu.Unlock()
	defer func() {
		d.mu.Lock()
		d.inflight--
		d.mu.Unlock()
	}()
	if d.before != nil {
		if err := d.before(block); err != nil {
			return nil, err
		}
	}
	flt, err := faults.Parse(spec.Faults)
	if err != nil {
		return nil, err
	}
	e := d.f.engine(flt)
	e.MaxRows, e.CollectMetrics = d.maxRows, spec.Metrics
	res := d.f.res
	if !spec.Instrument {
		res = nil
	}
	d.mu.Lock()
	if d.runs == nil {
		d.runs = make(map[int]int)
	}
	d.runs[block]++
	d.mu.Unlock()
	rb, err := e.RunBlockCtx(ctx, block, spec.Plans, res, spec.Observe, held)
	if err != nil {
		return nil, err
	}
	if slices.Contains(spec.Hold, block) {
		d.mu.Lock()
		d.held[block] = rb.LateOut
		d.mu.Unlock()
		rb.LateOut, rb.Held = nil, true
	}
	if err := land(spec, rb); err != nil {
		return nil, err
	}
	if d.after != nil {
		d.after(block, rb)
	}
	return rb, nil
}

// land carries a block's late tables over an in-memory wire, the way the
// coordinator takes them in: written, then read back into rows over the
// spec's data.
func land(spec *DispatchSpec, rb *RemoteBlock) error {
	read := func(l *data.Late) (*data.Table, error) {
		var buf bytes.Buffer
		if err := data.WriteLate(&buf, l); err != nil {
			return nil, err
		}
		return data.ReadLate(&buf, 1<<26, spec.DB)
	}
	var err error
	if rb.LateOut != nil {
		if rb.Out, err = read(rb.LateOut); err != nil {
			return err
		}
	}
	if len(rb.LateMaterialized) > 0 {
		rb.Materialized = make(map[string]*data.Table, len(rb.LateMaterialized))
	}
	for name, l := range rb.LateMaterialized {
		if rb.Materialized[name], err = read(l); err != nil {
			return err
		}
	}
	rb.LateOut, rb.LateMaterialized = nil, nil
	return nil
}

// errLoopLost is the error a dead fleet reports.
var errLoopLost = fmt.Errorf("loop: fleet gone: %w", ErrWorkersLost)

// storeBytesOf renders a result's observed store in its canonical form.
func storeBytesOf(t *testing.T, r *Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := r.Observed.WriteTo(&buf); err != nil {
		t.Fatalf("store WriteTo: %v", err)
	}
	return buf.Bytes()
}

// metricsJSON is the deterministic metrics report (row counts, no timing).
func metricsJSON(t *testing.T, r *Result) string {
	t.Helper()
	if r.Metrics == nil {
		t.Fatal("run carries no metrics")
	}
	b, err := json.Marshal(r.Metrics.Nodes)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// degradedKeys lists a run's degraded statistics.
func degradedKeys(r *Result) []stats.Key {
	var keys []stats.Key
	for _, fs := range r.Degraded {
		keys = append(keys, fs.Stat.Key())
	}
	return keys
}

// allBlocks lists the fixture's block indices, ascending.
func (f *multiBlockFixture) allBlocks() []int {
	var idx []int
	for _, b := range f.an.Blocks {
		idx = append(idx, b.Index)
	}
	return idx
}

// assertPlacement checks a DistReport: remote and local are the expected
// disjoint sets.
func assertPlacement(t *testing.T, name string, d *DistReport, remote, local []int) {
	t.Helper()
	if d == nil {
		t.Fatalf("%s: run carries no DistReport", name)
	}
	if !reflect.DeepEqual(d.Remote, remote) || !reflect.DeepEqual(d.Local, local) {
		t.Errorf("%s: placed remote %v local %v, want remote %v local %v", name, d.Remote, d.Local, remote, local)
	}
}

// TestDispatchMatchesLocal is leg (a): a dispatched run equals the local
// run on sinks, materialized tables, Rows, store bytes, Retries, degraded
// statistics and the deterministic metrics — with the engine's fault
// injector, worker count and metrics bit set once, on the engine.
func TestDispatchMatchesLocal(t *testing.T) {
	f := newMultiBlockFixture(t)
	for _, tc := range []struct {
		name string
		flt  *faults.Injector
	}{
		{"clean", nil},
		{"transient", faults.New(7, 1, 1, 0)},
		{"degraded-taps", faults.New(7, 0.5, 0, faults.Tap)},
	} {
		name := tc.name
		local := f.engine(tc.flt)
		local.Workers, local.CollectMetrics = 2, true
		want, err := f.run(local)
		if err != nil {
			t.Fatalf("%s: local run: %v", name, err)
		}
		d := &loopDispatcher{f: f, slots: 2}
		remote := f.engine(tc.flt)
		remote.Workers, remote.CollectMetrics, remote.Dispatch = 2, true, d
		got, err := f.run(remote)
		if err != nil {
			t.Fatalf("%s: dispatched run: %v", name, err)
		}
		equalResults(t, name, want, got)
		if !bytes.Equal(storeBytesOf(t, want), storeBytesOf(t, got)) {
			t.Errorf("%s: observed store bytes differ", name)
		}
		if want.Retries != got.Retries {
			t.Errorf("%s: retries %d, want %d", name, got.Retries, want.Retries)
		}
		if tc.name == "transient" && got.Retries == 0 {
			t.Errorf("%s: the injector never fired on the workers", name)
		}
		if !reflect.DeepEqual(degradedKeys(want), degradedKeys(got)) {
			t.Errorf("%s: degraded %v, want %v", name, degradedKeys(got), degradedKeys(want))
		}
		if tc.name == "degraded-taps" && len(got.Degraded) == 0 {
			t.Errorf("%s: no tap degraded on the workers", name)
		}
		if w, g := metricsJSON(t, want), metricsJSON(t, got); w != g {
			t.Errorf("%s: metrics differ:\n local %s\nremote %s", name, w, g)
		}
		assertPlacement(t, name, got.Dist, f.allBlocks(), nil)
		if got.Dist.FellBack {
			t.Errorf("%s: fell back: %s", name, got.Dist.Reason)
		}
	}
}

// TestDispatchOrderAndFailure is leg (b): the lowest-index ready block is
// dispatched first, of several failing blocks the lowest index is the one
// reported, as a *BlockFailure, and the partial result beside it holds what
// did complete.
func TestDispatchOrderAndFailure(t *testing.T) {
	f := newMultiBlockFixture(t)

	t.Run("order", func(t *testing.T) {
		d := &loopDispatcher{f: f, slots: 1}
		e := f.engine(nil)
		e.Workers, e.Dispatch = 4, d
		if _, err := f.run(e); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(d.started, f.allBlocks()) {
			t.Errorf("one slot dispatched blocks in order %v, want %v", d.started, f.allBlocks())
		}
		if d.maxInflight != 1 {
			t.Errorf("one slot kept %d blocks in flight", d.maxInflight)
		}
	})

	t.Run("lowest failing index", func(t *testing.T) {
		// Blocks 0 and 1 are independent and both fail; block 1 fails first.
		oneFailed := make(chan struct{})
		d := &loopDispatcher{f: f, slots: 2, before: func(block int) error {
			if block == 0 {
				<-oneFailed
			} else {
				defer close(oneFailed)
			}
			return fmt.Errorf("block %d is broken", block)
		}}
		e := f.engine(nil)
		e.Dispatch = d
		_, err := f.run(e)
		var bf *BlockFailure
		if !errors.As(err, &bf) {
			t.Fatalf("want a *BlockFailure, got %v", err)
		}
		if bf.Block != 0 || !strings.Contains(bf.Err.Error(), "block 0 is broken") {
			t.Errorf("reported block %d (%v)", bf.Block, bf.Err)
		}
	})

	t.Run("partial", func(t *testing.T) {
		d := &loopDispatcher{f: f, slots: 1, before: func(block int) error {
			if block == 1 {
				return errors.New("block 1 is broken")
			}
			return nil
		}}
		e := f.engine(nil)
		e.Dispatch = d
		partial, err := f.run(e)
		var bf *BlockFailure
		if !errors.As(err, &bf) || bf.Block != 1 {
			t.Fatalf("want block 1's *BlockFailure, got %v", err)
		}
		if _, ok := partial.BlockOut[0]; !ok || len(partial.BlockOut) != 1 {
			t.Fatalf("the partial result holds %d blocks, want block 0 alone", len(partial.BlockOut))
		}
		assertPlacement(t, "partial", partial.Dist, []int{0}, nil)
	})
}

// TestDispatchWorkersLost is leg (c): ErrWorkersLost at session open, at
// the first block and mid-run each leave a whole result, a report marked
// FellBack whose Remote and Local partition exactly the blocks that ran,
// and no block executed twice.
func TestDispatchWorkersLost(t *testing.T) {
	f := newMultiBlockFixture(t)
	loseFrom := func(first int) func(int) error {
		return func(block int) error {
			if block >= first {
				return errLoopLost
			}
			return nil
		}
	}
	clean, err := f.run(f.engine(nil))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name          string
		d             *loopDispatcher
		remote, local []int
	}{
		{"session-open", &loopDispatcher{f: f, slots: 2, openErr: errLoopLost}, nil, []int{0, 1, 2}},
		{"first-block", &loopDispatcher{f: f, slots: 2, before: loseFrom(0)}, nil, []int{0, 1, 2}},
		{"mid-run", &loopDispatcher{f: f, slots: 2, before: loseFrom(1)}, []int{0}, []int{1, 2}},
		{"mid-run/one-slot", &loopDispatcher{f: f, slots: 1, before: loseFrom(2)}, []int{0, 1}, []int{2}},
	} {
		name := tc.name
		e := f.engine(nil)
		e.Workers, e.Dispatch = 2, tc.d
		got, err := f.run(e)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		equalResults(t, name, clean, got)
		assertPlacement(t, name, got.Dist, tc.remote, tc.local)
		if !got.Dist.FellBack || !strings.Contains(got.Dist.Reason, "fleet gone") {
			t.Errorf("%s: FellBack=%v reason %q", name, got.Dist.FellBack, got.Dist.Reason)
		}
		for _, b := range f.allBlocks() {
			want := 0
			for _, r := range tc.remote {
				if r == b {
					want = 1
				}
			}
			if tc.d.runs[b] != want {
				t.Errorf("%s: workers executed block %d %d time(s), want %d", name, b, tc.d.runs[b], want)
			}
		}
	}
}

// TestCommitOnce is leg (d): a block delivered twice — a retried dispatch
// whose first response was lost after all — is committed once, held or not;
// a held output of a block the session was not asked to hold is refused.
func TestCommitOnce(t *testing.T) {
	f := newMultiBlockFixture(t)
	plan, err := physical.Compile(f.an, f.db, physical.Options{Res: f.res, Observe: f.observe})
	if err != nil {
		t.Fatal(err)
	}
	rb, err := f.engine(faults.New(7, 1, 1, 0)).RunBlockCtx(context.Background(), 0, nil, f.res, f.observe, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := land(&DispatchSpec{DB: f.db}, rb); err != nil {
		t.Fatal(err)
	}
	if rb.Rows == 0 || rb.Retries == 0 {
		t.Fatalf("fixture block 0: rows %d retries %d", rb.Rows, rb.Retries)
	}
	env := newRunEnv(context.Background(), newRowBudget(1<<20), nil)
	out := &Result{BlockOut: map[int]*data.Table{}, Materialized: map[string]*data.Table{}}
	s := &blockSched{plan: plan, env: env, out: out, col: newCollector(), report: &DistReport{}}
	for i := 0; i < 2; i++ {
		if err := s.commit(plan.Blocks[0], rb, true); err != nil {
			t.Fatalf("delivery %d: %v", i, err)
		}
	}
	if out.Rows != rb.Rows || env.budget.used.Load() != rb.Rows || env.retries.Load() != rb.Retries {
		t.Errorf("two deliveries left rows %d budget %d retries %d, want %d/%d/%d",
			out.Rows, env.budget.used.Load(), env.retries.Load(), rb.Rows, rb.Rows, rb.Retries)
	}
	if !reflect.DeepEqual(s.report.Remote, []int{0}) {
		t.Errorf("placement records %v, want block 0 once", s.report.Remote)
	}

	held := *rb
	held.Out, held.Held = nil, true
	env = newRunEnv(context.Background(), newRowBudget(1<<20), nil)
	out = &Result{BlockOut: map[int]*data.Table{}, Materialized: map[string]*data.Table{}}
	s = &blockSched{plan: plan, env: env, out: out, col: newCollector(), report: &DistReport{}, hold: []int{0}}
	for i := 0; i < 2; i++ {
		if err := s.commit(plan.Blocks[0], &held, true); err != nil {
			t.Fatalf("held delivery %d: %v", i, err)
		}
	}
	if t0, ok := out.BlockOut[0]; !ok || t0 != nil {
		t.Errorf("a held block committed as output %v", t0)
	}
	if out.Rows != rb.Rows || env.budget.used.Load() != rb.Rows || env.retries.Load() != rb.Retries || s.report.Held != 1 {
		t.Errorf("two held deliveries left rows %d budget %d retries %d held %d, want %d/%d/%d/1",
			out.Rows, env.budget.used.Load(), env.retries.Load(), s.report.Held, rb.Rows, rb.Rows, rb.Retries)
	}
	if err := s.commit(plan.Blocks[2], &RemoteBlock{Held: true}, true); err == nil || !strings.Contains(err.Error(), "asked to hold") {
		t.Errorf("a held output of a block no one asked to hold: err = %v", err)
	}
}

// TestDispatchHeldFallBack loses the fleet after the two held blocks
// committed: the block that reads them runs in-process and recomputes both,
// output only. Rows, Retries, the observed bytes and the row budget are each
// charged once — MaxRows at the local run's exact total still passes — and
// equal the local run's.
func TestDispatchHeldFallBack(t *testing.T) {
	f := newMultiBlockFixture(t)
	flt := faults.New(7, 1, 1, 0)
	want, err := f.run(f.engine(flt))
	if err != nil {
		t.Fatal(err)
	}
	d := &loopDispatcher{f: f, slots: 2, before: func(block int) error {
		if block == 2 {
			return errLoopLost
		}
		return nil
	}}
	e := f.engine(flt)
	e.MaxRows, e.Dispatch = want.Rows, d
	got, err := f.run(e)
	if err != nil {
		t.Fatalf("MaxRows = the local total: %v", err)
	}
	equalResults(t, "fallback", want, got)
	if !bytes.Equal(storeBytesOf(t, want), storeBytesOf(t, got)) {
		t.Error("observed store bytes differ")
	}
	if got.Rows != want.Rows || got.Retries != want.Retries || want.Retries == 0 {
		t.Errorf("rows %d retries %d, want %d and %d (> 0)", got.Rows, got.Retries, want.Rows, want.Retries)
	}
	assertPlacement(t, "fallback", got.Dist, []int{0, 1}, []int{2})
	if g := got.Dist; !g.FellBack || g.Held != 2 || g.Recomputed != 2 {
		t.Errorf("report %+v, want a fallback after 2 held outputs, both recomputed", g)
	}
	if got.BlockOut[0] == nil || got.BlockOut[1] == nil {
		t.Error("after the recompute the result still lacks a held output")
	}
	if d.runs[0] != 1 || d.runs[1] != 1 {
		t.Errorf("the workers ran blocks 0 and 1 %d and %d time(s)", d.runs[0], d.runs[1])
	}
}

// TestDispatchMetricsShardLength is leg (e): a metrics shard whose length
// is not the block's node count — or any shard when metrics are off — is
// the block's error, never an index panic.
func TestDispatchMetricsShardLength(t *testing.T) {
	f := newMultiBlockFixture(t)
	for _, tc := range []struct {
		name    string
		metrics bool
		tamper  func(*RemoteBlock)
	}{
		{"short", true, func(rb *RemoteBlock) { rb.Metrics = rb.Metrics[:len(rb.Metrics)-1] }},
		{"long", true, func(rb *RemoteBlock) { rb.Metrics = append(rb.Metrics, physical.Metrics{}) }},
		{"missing", true, func(rb *RemoteBlock) { rb.Metrics = nil }},
		{"unasked", false, func(rb *RemoteBlock) { rb.Metrics = make([]physical.Metrics, 1) }},
	} {
		d := &loopDispatcher{f: f, slots: 1, after: func(block int, rb *RemoteBlock) {
			if block == 1 {
				tc.tamper(rb)
			}
		}}
		e := f.engine(nil)
		e.CollectMetrics, e.Dispatch = tc.metrics, d
		_, err := f.run(e)
		var bf *BlockFailure
		if !errors.As(err, &bf) || bf.Block != 1 || !strings.Contains(err.Error(), "metrics shard") {
			t.Errorf("%s: want block 1 to fail on its metrics shard, got %v", tc.name, err)
		}
	}
}

// TestDispatchMaxRowsRunLevel pins MaxRows as a run-level guard in either
// placement: one row short of the run's total fails the same block with the
// same guard, although no single block comes near the cap its worker
// applies; the exact total passes.
func TestDispatchMaxRowsRunLevel(t *testing.T) {
	f := newMultiBlockFixture(t)
	const name = "batch"
	clean, err := f.run(f.engine(nil))
	if err != nil {
		t.Fatal(err)
	}
	guarded := func(maxRows int64, dispatch bool) (*Result, error) {
		e := f.engine(nil)
		e.MaxRows = maxRows
		if dispatch {
			e.Dispatch = &loopDispatcher{f: f, slots: 1, maxRows: maxRows}
		}
		return f.run(e)
	}
	for _, dispatch := range []bool{false, true} {
		if got, err := guarded(clean.Rows, dispatch); err != nil || got.Rows != clean.Rows {
			t.Errorf("%s dispatch=%v: MaxRows = total: %v", name, dispatch, err)
		}
	}
	lout, lerr := guarded(clean.Rows-1, false)
	dout, derr := guarded(clean.Rows-1, true)
	var lbf, dbf *BlockFailure
	if !errors.As(lerr, &lbf) || !errors.As(derr, &dbf) {
		t.Fatalf("%s: MaxRows = total-1: local %v, dispatched %v", name, lerr, derr)
	}
	// The local error names the operator that crossed the limit first;
	// the guard's own text follows it.
	guard := dbf.Err.Error()
	if lbf.Block != dbf.Block || !strings.HasPrefix(guard, "intermediate-cardinality guard") || !strings.HasSuffix(lbf.Err.Error(), guard) {
		t.Errorf("%s: local failed block %d (%v), dispatched block %d (%v)", name, lbf.Block, lbf.Err, dbf.Block, dbf.Err)
	}
	if len(dout.BlockOut) != len(lout.BlockOut) || dout.Rows != lout.Rows {
		t.Errorf("%s: partial results differ: local %d blocks/%d rows, dispatched %d/%d", name,
			len(lout.BlockOut), lout.Rows, len(dout.BlockOut), dout.Rows)
	}
}
