package main

import (
	"crypto/sha256"
	"fmt"
	"io"
	"math/rand"
	"os"
	"sort"
	"strings"
	"time"

	"github.com/essential-stats/etlopt/internal/core"
	"github.com/essential-stats/etlopt/internal/data"
	"github.com/essential-stats/etlopt/internal/engine"
	"github.com/essential-stats/etlopt/internal/optimizer"
	"github.com/essential-stats/etlopt/internal/stats"
	"github.com/essential-stats/etlopt/internal/suite"
	"github.com/essential-stats/etlopt/internal/workflow"
)

// options is one benchmark invocation.
type options struct {
	workload string
	seed     int64
	// budget bounds the timed rounds: the round count is fixed by the spec
	// (fixed counts repeat, durations do not), and the budget only cuts the
	// run short on a host too slow to finish them.
	budget time.Duration
	trace  bool
	// rounds, setups and warmups override the defaults (tests shrink them).
	rounds  int
	setups  int
	warmups int
	outDir  string
	log     io.Writer
}

// Defaults probed on the 2-core host. A run sets up three times and
// setup_s is the median: the first set-up faults the heap in (wf15's observed
// run took 10.4 s cold, 0.51 s warm), and between two back-to-back sweeps of
// ten runs the median of that cold set-up moved by 34 % where every warm
// time moved by 5-10 %. Each set-up ends in one untimed warm-up round, three
// in all before the first timed round; the heap and the engine's pools
// belong to the process, so they stay warm from one set-up to the next.
const (
	defaultSetups  = 3
	defaultWarmups = 1
	// minTimedRounds is how many timed rounds run even past the budget.
	minTimedRounds = 5
)

// tally counts checked operations across every set-up of a run.
type tally struct {
	attempted, failed int
	log               io.Writer
}

func (t *tally) fail(op string, round int, err error) {
	t.failed++
	if t.failed <= 10 {
		fmt.Fprintf(t.log, "FAIL round %d %s: %v\n", round, op, err)
	}
}

// roundCtx is what an op knows about the round it runs in.
type roundCtx struct {
	round int
	// root is the op's root span (-1 untraced).
	root int
	// quiet suppresses spans: the 2-client phase would overlap them.
	quiet bool
}

// op is one timed operation of a workload. run performs its untimed
// preparation, the timed call, then the output check; it returns only the
// timed part. Every op runs once per round and rounds go round-robin over
// all ops, so each metric samples the whole run window.
type op struct {
	key   string // "wf26@0.002/cycle"
	group string // the metric it feeds: cycle, rerun, stream, dist, hit, ...
	// per divides the duration into per-request latency (the closed loop).
	per int
	// reps is how many samples the op takes per round (0 = 1): ops far below
	// a millisecond repeat back to back, which costs next to nothing and is
	// what gives the hit floor its thousands of samples.
	reps    int
	run     func(rc *roundCtx) (time.Duration, error)
	samples []float64 // seconds, reps per timed round
}

// env is one set-up: generated data, reference results, a daemon, two
// workers, and the ops over them.
type env struct {
	sp  *spec
	o   options
	tr  *tracer
	tl  *tally
	ref *refKernel
	wfs map[string]*wfState
	// units are the ops grouped by workflow; ops is the same ops, flat.
	units [][]*op
	ops   []*op
	sv    *serveEnv
	dist  *distEnv

	genSeconds float64 // data.Generate time of this set-up
	closers    []func()
}

func (e *env) close() {
	for i := len(e.closers) - 1; i >= 0; i-- {
		e.closers[i]()
	}
	e.closers = nil
}

// timed runs f under a span (traced run) and returns its wall time.
func (e *env) timed(rc *roundCtx, name, opKey string, f func() error) (time.Duration, error) {
	id := e.tr.begin(name, opKey, rc.round, rc.root, laneBench)
	t0 := time.Now()
	err := f()
	d := time.Since(t0)
	e.tr.end(id)
	return d, err
}

const (
	laneBench = 1
	laneServe = 2
	laneWork  = 3
)

// round runs every op once. Warm-up rounds are negative and leave no sample.
//
// The units run in an order drawn from the seed and the round. In a fixed
// order the process's GC cycles and pool refills fall on the same ops every
// round, and which ops those are differs from process to process; shuffling
// turns that per-process bias into per-round noise that the rounds average.
func (e *env) round(r int) {
	rng := rand.New(rand.NewSource(e.o.seed*1_000_003 + int64(r)))
	for _, u := range rng.Perm(len(e.units)) {
		e.runUnit(e.units[u], r)
	}
}

func (e *env) runUnit(ops []*op, r int) {
	for _, o := range ops {
		e.ref.interleave()
		for i := 0; i < max(o.reps, 1); i++ {
			rc := &roundCtx{round: r, root: e.tr.begin("bench."+o.group, o.key, r, -1, laneBench)}
			d, err := o.run(rc)
			e.tr.end(rc.root)
			e.tl.attempted++
			switch {
			case err != nil:
				e.tl.fail(o.key, r, err)
			case r >= 0:
				o.samples = append(o.samples, d.Seconds()/float64(max(o.per, 1)))
			}
		}
	}
}

// group returns the samples of every op feeding one metric.
func (e *env) group(name string) [][]float64 {
	var out [][]float64
	for _, o := range e.ops {
		if o.group == name {
			out = append(out, o.samples)
		}
	}
	return out
}

// wfState is one workflow at one scale: its data, its cycle configuration
// and the reference results every later round is checked against.
type wfState struct {
	wfScale
	w     *suite.Workflow
	scale float64 // the spec's scale times the seed's jitter
	db    engine.DB
	cfg   core.Config
	ref   reference
	// cy is the round's batch cycle, handed from the cycle op to the rerun.
	cy *core.Cycle
	// wire is the body bytes one distributed cycle moved (-1 before the first).
	wire int64
	// wireRows and wireBytes size the traced run's codec op.
	wireRows, wireBytes int64
	// lay holds the traced run's step-wise products and counts.
	lay *wfLayers
}

// reference pins what a workflow's cycle must reproduce on every engine,
// every round: the selection's memory, the plans, the work metric, the
// observed statistics byte for byte, and the sinks as row multisets.
type reference struct {
	mem, rows, optRows int64
	plans              string
	observed           [sha256.Size]byte
	sinks              string
}

// jitter maps a seed to a scale factor within ±0.5 %, which is how a seed
// reaches the inputs. Workers regenerate suite data from (workflow, scale)
// alone, so a distributed run can take a seed no other way; and shifting
// Workflow.Seed instead moved the work itself by ±10 % from seed to seed
// (join fan-outs of the Zipfian keys). Even through the scale, join output
// grows faster than the input: ±1 % of scale moved dist_wire_mb by ±3 %. Data
// generation is row by row, so a jittered table is the unjittered one with
// a few rows more or fewer.
func jitter(seed int64) float64 {
	u := float64(splitmix(uint64(seed))>>11) / (1 << 53) // [0,1)
	return 1 + (u-0.5)/100
}

// newWFState generates the workflow's data and its reference results.
func (e *env) newWFState(ws wfScale) (*wfState, error) {
	w, err := suite.Get(ws.WF)
	if err != nil {
		return nil, err
	}
	st := &wfState{wfScale: ws, w: w, scale: ws.Scale * jitter(e.o.seed), cfg: core.DefaultConfig(), wire: -1}
	st.cfg.MaxRows = e.sp.MaxRows
	t0 := time.Now()
	st.db = w.Data(st.scale)
	e.genSeconds += time.Since(t0).Seconds()
	cy, err := core.Run(w.Graph, w.Catalog, st.db, st.cfg)
	if err != nil {
		return nil, fmt.Errorf("%s: reference cycle: %w", ws.key(), err)
	}
	opt, err := cy.RunOptimized()
	if err != nil {
		return nil, fmt.Errorf("%s: reference optimized run: %w", ws.key(), err)
	}
	st.ref = reference{
		mem: cy.Selection.Memory, rows: cy.Observed.Rows, optRows: opt.Rows,
		plans: planString(cy.Analysis, cy.Plans), sinks: sinkSig(cy.Observed.Sinks),
	}
	if st.ref.observed, err = storeSum(cy.Observed.Observed); err != nil {
		return nil, err
	}
	st.cy = cy
	e.tl.attempted++
	if got := sinkSig(opt.Sinks); got != st.ref.sinks {
		e.tl.fail(ws.key()+"/reference", -1, fmt.Errorf("optimized sinks %s differ from the initial run's %s", got, st.ref.sinks))
	}
	return st, nil
}

// check compares a finished cycle with the workflow's reference.
func (st *wfState) check(cy *core.Cycle) error {
	return st.checkParts(cy.Selection.Memory, cy.Observed, planString(cy.Analysis, cy.Plans))
}

// checkParts is check over the pieces a step-wise cycle produces.
func (st *wfState) checkParts(mem int64, run *engine.Result, plans string) error {
	if mem != st.ref.mem {
		return fmt.Errorf("Selection.Memory = %d, reference %d", mem, st.ref.mem)
	}
	if run.Rows != st.ref.rows {
		return fmt.Errorf("Observed.Rows = %d, reference %d", run.Rows, st.ref.rows)
	}
	if plans != st.ref.plans {
		return fmt.Errorf("plans differ from the reference:\n%s\nvs\n%s", plans, st.ref.plans)
	}
	sum, err := storeSum(run.Observed)
	if err != nil {
		return err
	}
	if sum != st.ref.observed {
		return fmt.Errorf("observed statistics differ from the reference byte stream")
	}
	return nil
}

// planString renders the optimized join tree of every block.
func planString(an *workflow.Analysis, plans *optimizer.Result) string {
	var b strings.Builder
	for _, blk := range an.Blocks {
		p := plans.Plans[blk.Index]
		if p == nil || p.Tree == nil {
			fmt.Fprintf(&b, "%d:-\n", blk.Index)
			continue
		}
		fmt.Fprintf(&b, "%d:%s\n", blk.Index, p.Tree.Render(blk))
	}
	return b.String()
}

// storeSum hashes the store's canonical byte stream.
func storeSum(st *stats.Store) ([sha256.Size]byte, error) {
	h := sha256.New()
	if _, err := st.WriteTo(h); err != nil {
		return [sha256.Size]byte{}, fmt.Errorf("hashing observed statistics: %w", err)
	}
	var out [sha256.Size]byte
	h.Sum(out[:0])
	return out, nil
}

// sinkSig is an order-insensitive signature of a set of tables: per table
// its row count and the sum of its row hashes, columns taken in attribute
// order so a reordered join cannot change it.
func sinkSig(tables map[string]*data.Table) string {
	names := make([]string, 0, len(tables))
	for n := range tables {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		t := tables[n]
		cols := make([]int, len(t.Attrs))
		for i := range cols {
			cols[i] = i
		}
		sort.Slice(cols, func(i, j int) bool {
			a, c := t.Attrs[cols[i]], t.Attrs[cols[j]]
			if a.Rel != c.Rel {
				return a.Rel < c.Rel
			}
			return a.Col < c.Col
		})
		var sum uint64
		for _, row := range t.Rows {
			h := uint64(len(cols))
			for _, c := range cols {
				h = splitmix(h ^ uint64(row[c]))
			}
			sum += h
		}
		fmt.Fprintf(&b, "%s:%d:%016x;", n, len(t.Rows), sum)
	}
	return b.String()
}

// setup builds one environment and warms it up. Everything here is what
// setup_s times: data generation, reference cycles, daemon and worker
// start, seed uploads, and the warm-up round.
func setup(sp *spec, o options, tl *tally, tr *tracer) (*env, error) {
	e := &env{sp: sp, o: o, tr: tr, tl: tl, ref: newRefKernel(), wfs: map[string]*wfState{}}
	ok := false
	defer func() {
		if !ok {
			e.close()
		}
	}()
	for _, list := range [][]wfScale{sp.Cycle, sp.Stream, sp.Dist} {
		for _, w := range list {
			if e.wfs[w.key()] != nil {
				continue
			}
			st, err := e.newWFState(w)
			if err != nil {
				return nil, err
			}
			e.wfs[w.key()] = st
		}
	}
	if err := e.startServe(); err != nil {
		return nil, err
	}
	if err := e.startDist(); err != nil {
		return nil, err
	}
	// A unit is the ops of one workflow in their fixed order: its local
	// cycle, its optimized rerun, its streaming cycle and its distributed
	// cycle run back to back, so the legs compared against each other see
	// the same moment of the host. Rounds shuffle the units (see round).
	var order []string
	byWF := map[string][]*op{}
	add := func(key string, ops ...*op) {
		if byWF[key] == nil {
			order = append(order, key)
		}
		byWF[key] = append(byWF[key], ops...)
	}
	for _, w := range sp.Cycle {
		st := e.wfs[w.key()]
		add(w.key(), e.cycleOp(st, "cycle"), e.rerunOp(st))
		if e.tr != nil {
			ops, err := e.layerOps(st)
			if err != nil {
				return nil, err
			}
			add(w.key(), ops...)
		}
	}
	for _, w := range sp.Stream {
		add(w.key(), e.streamOp(e.wfs[w.key()]))
	}
	for i, w := range sp.Dist {
		st := e.wfs[w.key()]
		if e.tr != nil {
			add(w.key(), e.cycleOp(st, "distlocal"))
		}
		add(w.key(), e.distOp(st, e.dist.coords[i]))
		if e.tr != nil {
			add(w.key(), e.wireOp(st))
		}
	}
	for _, key := range order {
		e.units = append(e.units, byWF[key])
	}
	e.units = append(e.units, e.serveUnits()...)
	if e.tr != nil {
		e.units = append(e.units, []*op{e.kernelOp()})
	}
	for _, u := range e.units {
		e.ops = append(e.ops, u...)
	}
	for r := -o.warmups; r < 0; r++ {
		e.round(r)
	}
	ok = true
	return e, nil
}

// scratchDir makes a per-process directory under the output directory.
func (e *env) scratchDir(name string) (string, error) {
	if err := os.MkdirAll(e.o.outDir, 0o755); err != nil {
		return "", err
	}
	dir, err := os.MkdirTemp(e.o.outDir, name+"-*")
	if err != nil {
		return "", err
	}
	e.closers = append(e.closers, func() { os.RemoveAll(dir) })
	return dir, nil
}
