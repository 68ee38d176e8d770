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
// in-memory BlockDispatcher that does what internal/serve's coordinator and
// worker do — build an engine from the DispatchSpec the scheduler hands it,
// run a chain in one exchange with RunChainCtx, the worker's runner, and
// keep the later blocks' results for their own RunBlock calls — so every
// placement
// behaviour (ordering, failure reporting, fallback, the metrics shard,
// chains) is testable against the local run of the same fixture. In the
// diamond fixture (newMultiBlockFixture) blocks 0 and 1 both feed block 2,
// the sink's, so every block is a chain of its own, and block 2 reads
// outputs that left their chains; in the chain fixture (newChainFixture)
// block 0 feeds block 2, one chain, and block 1 is a chain of its own.

// loopDispatcher loops dispatched chains back to RunChainCtx.
type loopDispatcher struct {
	f     *multiBlockFixture
	slots int
	// maxRows is the per-block worker cap (serve.RunSpec.MaxRows).
	maxRows int64
	// openErr, when set, fails DispatchRun.
	openErr error
	// before runs ahead of an exchange, given its chain's head; an error it
	// returns is the RunBlock result. after may alter the outcome of a
	// successful block.
	before func(block int) error
	after  func(block int, rb *RemoteBlock)

	mu sync.Mutex
	// started is the blocks RunBlock was asked for, exchanged the heads of
	// the chains it ran, in order.
	started, exchanged []int
	// runs counts the executions of each block.
	runs        map[int]int
	inflight    int
	maxInflight int
	spec        *DispatchSpec
	// kept is the results of chain blocks after their head, until asked for.
	kept map[int]loopResult
}

type loopResult struct {
	rb  *RemoteBlock
	err error
}

func (d *loopDispatcher) DispatchRun(_ context.Context, spec *DispatchSpec) (RunDispatch, error) {
	if d.openErr != nil {
		return nil, d.openErr
	}
	d.mu.Lock()
	d.spec = spec
	d.kept = map[int]loopResult{}
	d.runs = map[int]int{}
	d.mu.Unlock()
	return d, nil
}

func (d *loopDispatcher) Slots() int { return d.slots }

func (d *loopDispatcher) Summary() (int64, int64, []string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return 0, int64(len(d.exchanged)), nil
}

func (d *loopDispatcher) RunBlock(ctx context.Context, block int, upstream map[int]*data.Table) (*RemoteBlock, error) {
	d.mu.Lock()
	d.started = append(d.started, block)
	if r, ok := d.kept[block]; ok {
		delete(d.kept, block)
		d.mu.Unlock()
		return r.rb, r.err
	}
	if len(upstream) > 0 {
		d.mu.Unlock()
		return nil, fmt.Errorf("loop: block %d reads an output no exchange carries", block)
	}
	d.inflight++
	d.maxInflight = max(d.maxInflight, d.inflight)
	spec := d.spec
	chain := []int{block}
	for _, c := range spec.Chains {
		if c[0] == block {
			chain = c
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
	rbs, err := e.RunChainCtx(ctx, chain, spec.Plans, res, spec.Observe)
	var results []loopResult
	for i, rb := range rbs {
		if err := land(spec, rb); err != nil {
			return nil, err
		}
		if d.after != nil {
			d.after(chain[i], rb)
		}
		results = append(results, loopResult{rb: rb})
	}
	if err != nil {
		results = append(results, loopResult{err: err})
	}
	d.mu.Lock()
	for _, b := range chain[:len(results)] {
		d.runs[b]++
	}
	d.exchanged = append(d.exchanged, block)
	for i, r := range results[1:] {
		d.kept[chain[i+1]] = r
	}
	d.mu.Unlock()
	return results[0].rb, results[0].err
}

// land carries a block's late tables over an in-memory wire, the way the
// coordinator takes them in: written, then read back over the spec's data.
func land(spec *DispatchSpec, rb *RemoteBlock) error {
	read := func(l *data.Late) (*data.Late, error) {
		var buf bytes.Buffer
		if err := data.WriteLate(&buf, l); err != nil {
			return nil, err
		}
		return data.ReadLate(&buf, 1<<26, spec.DB)
	}
	var err error
	if rb.Out != nil {
		if rb.Out, err = read(rb.Out); err != nil {
			return err
		}
	}
	for name, l := range rb.Materialized {
		if rb.Materialized[name], err = read(l); err != nil {
			return err
		}
	}
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
// injector, worker count and metrics bit set once, on the engine. In the
// diamond block 2 reads outputs that left their chains and runs in-process,
// no fallback; the chain fixture runs its three blocks in two exchanges.
func TestDispatchMatchesLocal(t *testing.T) {
	for _, fx := range []struct {
		name          string
		f             *multiBlockFixture
		remote, local []int
		exchanges     int64
	}{
		{"diamond", newMultiBlockFixture(t), []int{0, 1}, []int{2}, 2},
		{"chains", newChainFixture(t), []int{0, 1, 2}, nil, 2},
	} {
		for _, tc := range []struct {
			name string
			flt  *faults.Injector
		}{
			{"clean", nil},
			{"transient", faults.New(7, 1, 1, 0)},
			{"degraded-taps", faults.New(7, 0.5, 0, faults.Tap)},
		} {
			matchesLocal(t, fx.name+"/"+tc.name, fx.f, tc.flt, fx.remote, fx.local, fx.exchanges)
		}
	}
}

func matchesLocal(t *testing.T, name string, f *multiBlockFixture, flt *faults.Injector, remoteBlocks, localBlocks []int, exchanges int64) {
	t.Helper()
	{
		local := f.engine(flt)
		local.Workers, local.CollectMetrics = 2, true
		want, err := f.run(local)
		if err != nil {
			t.Fatalf("%s: local run: %v", name, err)
		}
		d := &loopDispatcher{f: f, slots: 2}
		remote := f.engine(flt)
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
		if strings.HasSuffix(name, "/transient") && got.Retries == 0 {
			t.Errorf("%s: the injector never fired on the workers", name)
		}
		if !reflect.DeepEqual(degradedKeys(want), degradedKeys(got)) {
			t.Errorf("%s: degraded %v, want %v", name, degradedKeys(got), degradedKeys(want))
		}
		if strings.HasSuffix(name, "/degraded-taps") && len(got.Degraded) == 0 {
			t.Errorf("%s: no tap degraded on the workers", name)
		}
		if w, g := metricsJSON(t, want), metricsJSON(t, got); w != g {
			t.Errorf("%s: metrics differ:\n local %s\nremote %s", name, w, g)
		}
		assertPlacement(t, name, got.Dist, remoteBlocks, localBlocks)
		if got.Dist.FellBack || got.Dist.Exchanges != exchanges {
			t.Errorf("%s: fell back %v (%s) after %d exchanges, want no fallback and %d", name, got.Dist.FellBack, got.Dist.Reason, got.Dist.Exchanges, exchanges)
		}
	}
}

// TestDispatchOrderAndFailure is leg (b): the lowest-index ready block is
// dispatched first, of several failing blocks the lowest index is the one
// reported, as a *BlockFailure, and the partial result beside it holds what
// did complete. A block that fails inside its chain's exchange is reported
// as itself, with its own error's text, after the blocks before it
// committed, as it is in-process.
func TestDispatchOrderAndFailure(t *testing.T) {
	f := newMultiBlockFixture(t)

	t.Run("order", func(t *testing.T) {
		f := newChainFixture(t)
		d := &loopDispatcher{f: f, slots: 1}
		e := f.engine(nil)
		e.Workers, e.Dispatch = 4, d
		if _, err := f.run(e); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(d.started, f.allBlocks()) || !reflect.DeepEqual(d.exchanged, []int{0, 1}) {
			t.Errorf("one slot asked for blocks %v in exchanges headed %v, want %v in [0 1]", d.started, d.exchanged, f.allBlocks())
		}
		if d.maxInflight != 1 {
			t.Errorf("one slot kept %d blocks in flight", d.maxInflight)
		}
	})

	t.Run("inside a chain", func(t *testing.T) {
		// Seed 2 faults block 2's join for good, and neither block before it.
		f := newChainFixture(t)
		flt := faults.New(2, 0.5, 0, faults.Operator)
		want, werr := f.run(f.engine(flt))
		d := &loopDispatcher{f: f, slots: 1}
		e := f.engine(flt)
		e.Dispatch = d
		got, gerr := f.run(e)
		var lbf, dbf *BlockFailure
		if !errors.As(werr, &lbf) || !errors.As(gerr, &dbf) || lbf.Block != 2 || dbf.Block != 2 || lbf.Err.Error() != dbf.Err.Error() {
			t.Fatalf("in-process %v, dispatched %v: want block 2's failure, the same text", werr, gerr)
		}
		if len(got.BlockOut) != 2 || len(want.BlockOut) != 2 || d.runs[2] != 1 {
			t.Errorf("partial results hold %d blocks dispatched, %d in-process; block 2 ran %d time(s) on the workers", len(got.BlockOut), len(want.BlockOut), d.runs[2])
		}
		assertPlacement(t, "inside a chain", got.Dist, []int{0, 1}, nil)
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
	diamond, chains := newMultiBlockFixture(t), newChainFixture(t)
	loseFrom := func(first int) func(int) error {
		return func(block int) error {
			if block >= first {
				return errLoopLost
			}
			return nil
		}
	}
	for _, tc := range []struct {
		name          string
		f             *multiBlockFixture
		d             *loopDispatcher
		remote, local []int
	}{
		{"session-open", diamond, &loopDispatcher{f: diamond, slots: 2, openErr: errLoopLost}, nil, []int{0, 1, 2}},
		{"first-block", diamond, &loopDispatcher{f: diamond, slots: 2, before: loseFrom(0)}, nil, []int{0, 1, 2}},
		{"mid-run", diamond, &loopDispatcher{f: diamond, slots: 2, before: loseFrom(1)}, []int{0}, []int{1, 2}},
		{"chains/first-block", chains, &loopDispatcher{f: chains, slots: 1, before: loseFrom(0)}, nil, []int{0, 1, 2}},
	} {
		name := tc.name
		clean, err := tc.f.run(tc.f.engine(nil))
		if err != nil {
			t.Fatal(err)
		}
		e := tc.f.engine(nil)
		e.Workers, e.Dispatch = 2, tc.d
		got, err := tc.f.run(e)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		equalResults(t, name, clean, got)
		assertPlacement(t, name, got.Dist, tc.remote, tc.local)
		if !got.Dist.FellBack || !strings.Contains(got.Dist.Reason, "fleet gone") {
			t.Errorf("%s: FellBack=%v reason %q", name, got.Dist.FellBack, got.Dist.Reason)
		}
		for _, b := range tc.f.allBlocks() {
			want := 0
			if slices.Contains(tc.remote, b) {
				want = 1
			}
			if tc.d.runs[b] != want {
				t.Errorf("%s: workers executed block %d %d time(s), want %d", name, b, tc.d.runs[b], want)
			}
		}
	}
}

// TestCommitOnce is leg (d): a block delivered twice — a retried dispatch
// whose first response was lost after all — is committed once, whether its
// output came along or stayed inside its chain; a block whose output leaves
// its chain and comes back without one is refused.
func TestCommitOnce(t *testing.T) {
	f := newChainFixture(t)
	plan, err := physical.Compile(f.an, f.db, physical.Options{Res: f.res, Observe: f.observe})
	if err != nil {
		t.Fatal(err)
	}
	rbs, err := f.engine(faults.New(7, 1, 1, 0)).RunChainCtx(context.Background(), []int{0}, nil, f.res, f.observe)
	if err != nil {
		t.Fatal(err)
	}
	rb := rbs[0]
	if err := land(&DispatchSpec{DB: f.db}, rb); err != nil {
		t.Fatal(err)
	}
	if rb.Rows == 0 || rb.Retries == 0 {
		t.Fatalf("fixture block 0: rows %d retries %d", rb.Rows, rb.Retries)
	}
	inner := *rb
	inner.Out = nil
	for _, c := range []struct {
		name string
		rb   *RemoteBlock
	}{{"shipped", rb}, {"inside its chain", &inner}} {
		env := newRunEnv(context.Background(), newRowBudget(1<<20), nil)
		out := &Result{BlockOut: map[int]*data.Table{}, Materialized: map[string]*data.Table{}}
		s := &blockSched{plan: plan, env: env, out: out, col: newCollector(), report: &DistReport{}, inner: map[int]bool{0: true}, held: map[int]*data.Late{}}
		for i := 0; i < 2; i++ {
			out0, mat0 := rowsOf(c.rb)
			if err := s.commit(plan.Blocks[0], c.rb, out0, mat0, true); err != nil {
				t.Fatalf("%s: delivery %d: %v", c.name, i, err)
			}
		}
		if out.Rows != rb.Rows || env.budget.used.Load() != rb.Rows || env.retries.Load() != rb.Retries {
			t.Errorf("%s: two deliveries left rows %d budget %d retries %d, want %d/%d/%d", c.name,
				out.Rows, env.budget.used.Load(), env.retries.Load(), rb.Rows, rb.Rows, rb.Retries)
		}
		if !reflect.DeepEqual(s.report.Remote, []int{0}) {
			t.Errorf("%s: placement records %v, want block 0 once", c.name, s.report.Remote)
		}
		if t0, ok := out.BlockOut[0]; !ok || (t0 == nil) != (c.rb.Out == nil) {
			t.Errorf("%s: committed output %v", c.name, t0)
		}
		if c.rb.Out == nil {
			if err := s.commit(plan.Blocks[1], c.rb, nil, nil, true); err == nil || !strings.Contains(err.Error(), "leaves its chain") {
				t.Errorf("no output for a block whose output leaves its chain: err = %v", err)
			}
		}
	}
}

// TestDispatchHeldFallBack: chain 0 → 2's exchange commits block 0, then
// block 1's exchange reports the fleet lost. Block 1 runs in-process, and
// block 2 still comes from the session, which ran it in block 0's exchange:
// no block runs twice and none is made again in-process. Rows, Retries,
// the observed bytes and the row budget are each charged once — MaxRows at
// the local run's exact total still passes — and equal the local run's.
func TestDispatchHeldFallBack(t *testing.T) {
	f := newChainFixture(t)
	flt := faults.New(7, 1, 1, 0)
	want, err := f.run(f.engine(flt))
	if err != nil {
		t.Fatal(err)
	}
	d := &loopDispatcher{f: f, slots: 1, before: func(block int) error {
		if block == 1 {
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
	assertPlacement(t, "fallback", got.Dist, []int{0, 2}, []int{1})
	if g := got.Dist; !g.FellBack || g.Exchanges != 1 {
		t.Errorf("report %+v, want a fallback after one exchange", g)
	}
	if got.BlockOut[0] != nil {
		t.Error("block 0's output, which stayed inside its chain, reached the run")
	}
	if !reflect.DeepEqual(d.runs, map[int]int{0: 1, 2: 1}) || !reflect.DeepEqual(d.started, []int{0, 1, 2}) {
		t.Errorf("the workers ran blocks %v and were asked for %v; want 0 and 2 once each, asked for 0, 1, 2", d.runs, d.started)
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
	f := newChainFixture(t)
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

// TestRunChainCtx holds the worker's chain runner to the in-process run on
// the chain fixture's chain 0 → 2, instrumented and with metrics, every
// block's first attempt failed by a transient fault: block 0's outcome is
// the one it has run alone, as the chain's prefix, but for its output,
// which stays inside the chain; block 2's output is the in-process run's,
// and the chains' rows and shards merged are its work metric and store.
// Each block is held to MaxRows on its own: a cap under the chain's rows
// but not a block's passes, and a block that crosses it ends the chain
// after the outcomes before it; block 2 run without the output it reads
// fails cleanly.
func TestRunChainCtx(t *testing.T) {
	f := newChainFixture(t)
	chains := Chains(f.an)
	if !reflect.DeepEqual(chains, [][]int{{0, 2}, {1}}) {
		t.Fatalf("chains %v, want [[0 2] [1]]", chains)
	}
	clean := f.engine(nil)
	clean.CollectMetrics = true
	want, err := f.run(clean)
	if err != nil {
		t.Fatal(err)
	}
	run := func(maxRows int64, chain ...int) ([]*RemoteBlock, error) {
		e := f.engine(faults.New(7, 1, 1, faults.Operator))
		e.MaxRows, e.CollectMetrics = maxRows, true
		return e.RunChainCtx(context.Background(), chain, nil, f.res, f.observe)
	}
	rbs, err := run(0, 0, 2)
	if err != nil || len(rbs) != 2 {
		t.Fatalf("chain 0 → 2: %d outcome(s), %v", len(rbs), err)
	}
	head, err := run(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	other, err := run(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	b0, b2 := rbs[0], rbs[1]
	if b0.Out != nil || head[0].Out == nil || b2.Out == nil {
		t.Errorf("outputs kept: block 0 in the chain %v, alone %v, block 2 %v; want false, true, true", b0.Out != nil, head[0].Out != nil, b2.Out != nil)
	}
	if b0.Rows != head[0].Rows || b0.Retries != 1 || head[0].Retries != 1 || b2.Retries != 1 ||
		!reflect.DeepEqual(b0.Sources, head[0].Sources) || !sameRowCounts(b0.Metrics, head[0].Metrics) ||
		!bytes.Equal(storeBytesOf(t, &Result{Observed: b0.Observed}), storeBytesOf(t, &Result{Observed: head[0].Observed})) {
		t.Error("block 0's outcome inside the chain is not its outcome alone")
	}
	nodes := 0
	for _, n := range want.Metrics.Nodes {
		if n.Block == 2 {
			nodes++
		}
	}
	if len(b2.Metrics) != nodes || len(b2.Sources) == 0 {
		t.Errorf("block 2: %d node metrics, sources %v", len(b2.Metrics), b2.Sources)
	}
	if got := b2.Out.Table(); !reflect.DeepEqual(got, want.BlockOut[2]) {
		t.Errorf("block 2's output: %d rows, the in-process run's %d", len(got.Rows), len(want.BlockOut[2].Rows))
	}
	merged := stats.NewStore()
	var rows int64
	for _, rb := range []*RemoteBlock{b0, b2, other[0]} {
		merged.Merge(rb.Observed)
		rows += rb.Rows
	}
	if rows != want.Rows || !bytes.Equal(storeBytesOf(t, &Result{Observed: merged}), storeBytesOf(t, want)) {
		t.Errorf("the chains ran %d rows and observed %d statistics; the in-process run %d and %d", rows, merged.Len(), want.Rows, want.Observed.Len())
	}

	// The larger block fails under a cap of its rows less one, after the
	// outcomes of the blocks before it.
	most, fails := b0.Rows, 0
	if b2.Rows > most {
		most, fails = b2.Rows, 1
	}
	if got, err := run(most, 0, 2); err != nil || len(got) != 2 {
		t.Errorf("MaxRows = %d, under the chain's %d rows: %d outcome(s), %v", most, b0.Rows+b2.Rows, len(got), err)
	}
	if got, err := run(most-1, 0, 2); !errors.Is(err, ErrRowGuard) || len(got) != fails || (fails == 1 && (got[0].Rows != b0.Rows || got[0].Out != nil)) {
		t.Errorf("MaxRows = %d: %d outcome(s), %v; want %d, then the guard", most-1, len(got), err, fails)
	}
	if got, err := run(0, 2); err == nil || len(got) != 0 || !strings.Contains(err.Error(), "no output of upstream block 0") {
		t.Errorf("block 2 without block 0: %d outcome(s), %v", len(got), err)
	}
}

// sameRowCounts compares two metrics shards' rows and calls, node by node
// (the rest is timing).
func sameRowCounts(a, b []physical.Metrics) bool {
	return slices.EqualFunc(a, b, func(x, y physical.Metrics) bool { return x.RowsOut == y.RowsOut && x.Calls == y.Calls })
}
