package data_test

import (
	"bytes"
	"compress/flate"
	"context"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"sync"
	"testing"

	"github.com/essential-stats/etlopt/internal/data"
	"github.com/essential-stats/etlopt/internal/engine"
	"github.com/essential-stats/etlopt/internal/suite"
	"github.com/essential-stats/etlopt/internal/workflow"
)

// blockOutputs runs a suite workflow block by block, each block as the last
// of its chain's prefix that ends at it (engine.RunChainCtx, as a worker
// runs a chain), and returns each block's output.
func blockOutputs(t testing.TB, id int, scale float64) []*data.Late {
	t.Helper()
	var outs []*data.Late
	runs, _ := blockRuns(t, id, scale)
	for _, rb := range runs {
		outs = append(outs, rb.Out)
	}
	return outs
}

// blockRuns is blockOutputs' run: each block's outcome, output and
// materialized tables, in block order, and the analysis it ran.
func blockRuns(t testing.TB, id int, scale float64) ([]*engine.RemoteBlock, *workflow.Analysis) {
	t.Helper()
	w := suite.MustGet(id)
	an, err := workflow.Analyze(w.Graph, w.Catalog)
	if err != nil {
		t.Fatal(err)
	}
	e := engine.New(an, w.Data(scale), nil)
	runs := make([]*engine.RemoteBlock, len(an.Blocks))
	for _, chain := range engine.Chains(an) {
		for k, blk := range chain {
			rbs, err := e.RunChainCtx(context.Background(), chain[:k+1], nil, nil, nil)
			if err != nil {
				t.Fatalf("%s block %d: %v", w.Name, blk, err)
			}
			runs[blk] = rbs[k]
		}
	}
	for blk, rb := range runs {
		if rb == nil {
			t.Fatalf("%s block %d is in no chain", w.Name, blk)
		}
	}
	return runs, an
}

// distRunSections is the tables the dist-run benchmark workload's six
// dispatched runs ship, made as blockOutputs makes them: every block's
// materialized tables, by name, and each output no later block reads.
func distRunSections(tb testing.TB) (names []string, lates []*data.Late) {
	for _, r := range []struct {
		wf    int
		scale float64
	}{{5, 0.001}, {7, 0.01}, {8, 0.05}, {13, 0.1}, {18, 0.01}, {15, 0.001}} {
		runs, an := blockRuns(tb, r.wf, r.scale)
		read := make(map[int]bool)
		for _, blk := range an.Blocks {
			for _, in := range blk.Inputs {
				read[in.FromBlock] = true
			}
		}
		for b, rb := range runs {
			var mat []string
			for name := range rb.Materialized {
				mat = append(mat, name)
			}
			slices.Sort(mat)
			for _, name := range mat {
				names, lates = append(names, fmt.Sprintf("wf%02d b%d %s", r.wf, b, name)), append(lates, rb.Materialized[name])
			}
			if !read[b] {
				names, lates = append(names, fmt.Sprintf("wf%02d b%d out", r.wf, b)), append(lates, rb.Out)
			}
		}
	}
	return names, lates
}

// BenchmarkLateSections times the late codec over what one dist-run round
// ships: WriteLate of each of its tables, and ReadLate of each section back
// over the relations it names, an op being the whole round. Compare two
// builds with
//
//	go test -run '^$' -bench BenchmarkLateSections -count 10 ./internal/data
//
// and benchstat.
func BenchmarkLateSections(b *testing.B) {
	names, lates := distRunSections(b)
	sections := make([][]byte, len(lates))
	total := 0
	for i, l := range lates {
		var buf bytes.Buffer
		if err := data.WriteLate(&buf, l); err != nil {
			b.Fatalf("%s: %v", names[i], err)
		}
		sections[i], total = buf.Bytes(), total+buf.Len()
	}
	b.Logf("%d sections, %d B: %v", len(sections), total, names)
	b.Run("WriteLate", func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			for _, l := range lates {
				if err := data.WriteLate(io.Discard, l); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	dbs := make([]map[string]*data.Table, len(lates))
	for i, l := range lates {
		dbs[i] = data.LateDB(l)
	}
	b.Run("ReadLate", func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			for i, sec := range sections {
				if _, err := data.ReadLate(bytes.NewReader(sec), 1<<26, dbs[i]); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// TestLateWriterModelSuite writes every block output of every suite
// workflow at 0.002 (wf10, wf16 and wf24 left out, as in the other
// full-suite sweeps) and reads each back to its own rows. It pins the
// sections left in index form — group-by outputs, which read no relation,
// the joins that probe one, two outputs of no rows, and wf21's and wf26's
// star joins of two rows and one, whose index columns take fewer bytes than
// their expansions — and what all 37 sections take deflated (compress/flate
// at level 6, no dictionary, go1.24.0): 5,705 B, the same while the writer
// searched for each table's loop instead of taking the engine's. While every
// level sent its surviving rows as a gap list they took 5,956 B, and with
// the map and chain column encodings, and wf08's last block in index form,
// 5,995 B.
func TestLateWriterModelSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite sweep")
	}
	const pinnedDeflated = 5_705
	want := []string{"wf06 b0", "wf06 b1", "wf09 b0", "wf14 b0", "wf14 b1", "wf17 b0", "wf21 b0", "wf22 b0", "wf25 b0", "wf25 b1", "wf26 b0", "wf29 b0", "wf29 b1"}
	var indexed []string
	sections, deflated := 0, 0
	for _, w := range suite.All() {
		switch w.ID {
		case 10, 16, 24:
			continue
		}
		for b, out := range blockOutputs(t, w.ID, 0.002) {
			name := fmt.Sprintf("%s b%d", w.Name[:4], b)
			var sec bytes.Buffer
			if err := data.WriteLate(&sec, out); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if sec.Bytes()[len("ETBL5")] == 2 { // the index form's presence byte
				indexed = append(indexed, name)
			}
			var z bytes.Buffer
			fw, _ := flate.NewWriter(&z, 6)
			fw.Write(sec.Bytes())
			fw.Close()
			sections, deflated = sections+1, deflated+z.Len()
			back, err := data.ReadLate(&sec, 1<<26, data.LateDB(out))
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if got, want := back.Table(), out.Table(); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s reads back other rows", name)
			}
		}
	}
	t.Logf("%d sections, %d B deflated (pinned %d); in index form: %v", sections, deflated, pinnedDeflated, indexed)
	if sections != 37 || deflated > pinnedDeflated {
		t.Errorf("%d sections took %d B deflated, want 37 in at most %d", sections, deflated, pinnedDeflated)
	}
	if !slices.Equal(indexed, want) {
		t.Errorf("sections in index form %v, want %v", indexed, want)
	}
}

// TestLateWriterCells pins, within a quarter for Go-release drift, what
// WriteLate allocates from an empty pool for wf08@0.05's last block output,
// made as a worker makes it with both upstream outputs held: the levels of
// the loop the engine ran, their surviving rows, bitmaps and key indexes,
// the rider it keys T4 by — U.c, a transform's output, sent once a step of
// T1 — and the codec's tables (measured with go1.24.0 on amd64):
// 1,045,632 B. While the writer searched for the loop, its row marks took a
// byte a row more: 1,180,752 B, and 1,181,656 B before the levels kept
// survivor bitmaps. While T4's level had no key, the section sent its four
// row indexes, widened to cells, and named columns were gathered into an
// arena for the map and chain searches: 11,769,600 B.
func TestLateWriterCells(t *testing.T) {
	if raceDetector {
		t.Skip("pooled scratch is dropped at random under -race; the plain test job pins this")
	}
	const pinnedBytes = 1_045_632
	outs := blockOutputs(t, 8, 0.05)
	out := outs[len(outs)-1]
	// One P, no collection while measuring, and the codec's free list of
	// scratch emptied.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	data.DropScratch()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := data.WriteLate(io.Discard, out); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	allocated := after.TotalAlloc - before.TotalAlloc
	t.Logf("%d rows × %d columns over %d relations: %d B allocated (pinned %d)", out.N, len(out.Cols), len(out.Ins), allocated, pinnedBytes)
	if allocated > pinnedBytes*5/4 {
		t.Errorf("writing the section allocated %d B, over 1.25 x the pinned %d", allocated, pinnedBytes)
	}
}

// TestWriteLateWarmAllocs pins what a warm WriteLate allocates for
// wf08@0.05's last block, the largest section a dist-run round encodes,
// when collections ran since the call before, as they do between a
// worker's rounds: the scratch that call grew is still on the codec's free
// list, where a sync.Pool's was emptied and grown again from nothing,
// 11,642,712 B a call. The expansion's levels, the loop's state and the
// rider's values live in that scratch too, and so do the levels' survivor
// bitmaps; while each call made its own, a warm call allocated 21,296 B.
// The pin is a measured value (go1.24.0 on amd64); while the writer
// searched for the loop the engine now hands it, a warm call allocated
// 1,504 B. The bound leaves a quarter for Go-release drift.
func TestWriteLateWarmAllocs(t *testing.T) {
	const pinnedBytes = 1_216
	outs := blockOutputs(t, 8, 0.05)
	out := outs[len(outs)-1]
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	if err := data.WriteLate(io.Discard, out); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := data.WriteLate(io.Discard, out); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	allocated := after.TotalAlloc - before.TotalAlloc
	t.Logf("a warm call after two collections allocated %d B (pinned %d)", allocated, pinnedBytes)
	if allocated > pinnedBytes*5/4 {
		t.Errorf("a warm call allocated %d B, over 1.25 x the pinned %d", allocated, pinnedBytes)
	}
}

// TestLateExpansionModel holds every section to the late table it was
// written from, over 200 of TestLateTableModel's generated tables, 200 joins
// in the engine's order, those joins with two rows moved, 200 joins some of
// whose levels a transform's output keys, every block output of every
// multi-block suite workflow at 0.002, and each expanded one of those with
// its loop keyed wrong (wrongLoop): each reads back to exactly the late
// table's index vectors and columns, and the writer makes the same bytes
// twice. It pins how many of each kind expand, how many of those through a
// keying rider, and how many keep their index columns: a join in the
// engine's order keeps them only where they take fewer bytes, as four of a
// row or two do, and a wrong loop always does, so the check against every
// index, not the loop, decides the form. A change to the section's layout
// that moves any table's form fails here. The tables are checked
// concurrently, a goroutine a core; run it under -race at -cpu 1,4 too.
func TestLateExpansionModel(t *testing.T) {
	names, lates := data.GeneratedLates()
	if !testing.Short() {
		for _, w := range suite.All() {
			switch w.ID {
			case 10, 16, 24:
				continue
			}
			if outs := blockOutputs(t, w.ID, 0.002); len(outs) > 1 {
				for b, out := range outs {
					name := fmt.Sprintf("%s block %d", w.Name, b)
					names, lates = append(names, name), append(lates, out)
					var sec bytes.Buffer
					if err := data.WriteLate(&sec, out); err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if sec.Bytes()[len("ETBL5")] != 4 { // the expanded form's presence byte
						continue
					}
					wrong := wrongLoop(out)
					if wrong == nil {
						t.Fatalf("%s: no column keys a level wrong", name)
					}
					names, lates = append(names, name+", wrong loop"), append(lates, wrong)
				}
			}
		}
	}
	// The tables are checked GOMAXPROCS at a time, sharing the codec's
	// pooled scratch.
	expanded, keyed, errs := make([]bool, len(lates)), make([]int, len(lates)), make([]error, len(lates))
	procs := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	for g := 0; g < procs; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := g; i < len(lates); i += procs {
				expanded[i], keyed[i], errs[i] = data.CheckExpansion(lates[i])
			}
		}()
	}
	wg.Wait()
	count := map[string][3]int{} // kind: expanded, of them through a keying rider, index columns
	for i, err := range errs {
		if err != nil {
			t.Fatalf("%s: %v", names[i], err)
		}
		kind := "suite"
		if f := strings.SplitN(names[i], " ", 3); f[0] == "seed" {
			kind = "generated"
			if len(f) == 3 {
				kind = f[2]
			}
		} else if strings.HasSuffix(names[i], ", wrong loop") {
			kind = "wrong loop"
		}
		c := count[kind]
		switch {
		case keyed[i] > 0:
			c[0]++
			c[1]++
		case expanded[i]:
			c[0]++
		default:
			c[2]++
		}
		count[kind] = c
	}
	t.Logf("%d tables, by kind [expanded, keyed by a rider, index columns]: %v", len(lates), count)
	want := map[string][3]int{"generated": {0, 0, 200}, "join": {196, 0, 4}, "join, keyed": {192, 60, 8}, "join, moved": {1, 0, 199}}
	if !testing.Short() {
		want["suite"], want["wrong loop"] = [3]int{11, 1, 8}, [3]int{0, 0, 11}
	}
	if !reflect.DeepEqual(count, want) {
		t.Errorf("by kind %v, want %v", count, want)
	}
}

// TestLateReadBackCanonical writes every table a dist-run round ships and
// every suite block output at 0.002, reads each section back and writes it
// again: the bytes are the same. The reader sets
// the loop it ran, the same levels over the same relations and rows, so a
// remote output that a later block reads in-process keeps its loop; a
// section in index form reads back with none.
func TestLateReadBackCanonical(t *testing.T) {
	names, lates := distRunSections(t)
	if !testing.Short() {
		for _, w := range suite.All() {
			switch w.ID {
			case 10, 16, 24:
				continue
			}
			for b, out := range blockOutputs(t, w.ID, 0.002) {
				names, lates = append(names, fmt.Sprintf("%s b%d", w.Name[:4], b)), append(lates, out)
			}
		}
	}
	expanded := 0
	for i, l := range lates {
		var sec, again bytes.Buffer
		if err := data.WriteLate(&sec, l); err != nil {
			t.Fatalf("%s: %v", names[i], err)
		}
		x := sec.Bytes()[len("ETBL5")] == 4 // the expanded form's presence byte
		back, err := data.ReadLate(bytes.NewReader(sec.Bytes()), 1<<26, data.LateDB(l))
		if err != nil {
			t.Fatalf("%s: %v", names[i], err)
		}
		if err := data.WriteLate(&again, back); err != nil || !bytes.Equal(again.Bytes(), sec.Bytes()) {
			t.Errorf("%s: read back and written again, %d B against %d (%v)", names[i], again.Len(), sec.Len(), err)
		}
		if !x {
			if back.Levels != nil {
				t.Errorf("%s: a section in index form reads back with a loop", names[i])
			}
			continue
		}
		expanded++
		same := len(back.Levels) == len(l.Levels)
		for k := 0; same && k < len(l.Levels); k++ {
			lv, bv := l.Levels[k], back.Levels[k]
			in, bin := l.Ins[lv.In], back.Ins[bv.In]
			same = lv.Key == bv.Key && lv.From == bv.From && lv.FromCol == bv.FromCol && in.Src == bin.Src && slices.Equal(in.Idx, bin.Idx)
		}
		if !same {
			t.Errorf("%s: loop %v read back as %v", names[i], l.Levels, back.Levels)
		}
	}
	t.Logf("%d sections, %d of them expansions", len(lates), expanded)
	if expanded == 0 {
		t.Error("no section went as its expansion")
	}
}

// wrongLoop is l with its loop keyed wrong: the first level past the first
// keyed on the first other column of its relation that differs from its key
// on some row, so that the row's level does not match it; nil where no
// level has one.
func wrongLoop(l *data.Late) *data.Late {
	for k := 1; k < len(l.Levels); k++ {
		in := l.Ins[l.Levels[k].In]
		for key := range in.Src.Attrs {
			if slices.ContainsFunc(in.Idx, func(r int32) bool { return in.Src.Rows[r][key] != in.Src.Rows[r][l.Levels[k].Key] }) {
				wrong := *l
				wrong.Levels = slices.Clone(l.Levels)
				wrong.Levels[k].Key = key
				return &wrong
			}
		}
	}
	return nil
}

// TestReadLateAllocs pins what a coordinator's reader allocates decoding
// wf08@0.05's last block section, made as a worker makes it — both
// upstream outputs held — and read with the codec's scratch warm, as a
// session reads: the late table's own vectors, an index of 4 B a row for
// each of the four relations it names and 8 B a row for its one column no
// relation holds, U.c, and the expansion's levels and rider, which make
// them, and the loop it ran, which the table keeps as its Levels (one
// allocation and 160 B more than before the reader kept it). Each level's
// surviving rows are counted before they are allocated, bitmap or gap
// list. The pins are measured values (go1.24.0 on amd64); the bound leaves
// a quarter for Go-release drift.
func TestReadLateAllocs(t *testing.T) {
	if raceDetector {
		t.Skip("pooled scratch is dropped at random under -race; the plain test job pins this")
	}
	const (
		pinnedBytes  = 3_094_363
		pinnedAllocs = 68
	)
	outs := blockOutputs(t, 8, 0.05)
	out := outs[len(outs)-1]
	db := data.LateDB(out)
	var buf bytes.Buffer
	if err := data.WriteLate(&buf, out); err != nil {
		t.Fatal(err)
	}
	section := buf.Bytes()
	read := func() *data.Late {
		l, err := data.ReadLate(bytes.NewReader(section), 1<<26, db)
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	// One P and no collection while measuring: the pooled scratch the
	// warm-up read grew is the one every measured read takes.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	l := read()
	var own int64
	for _, in := range l.Ins {
		own += 4 * int64(len(in.Idx))
	}
	plain := 0
	for _, c := range l.Cols {
		if c.In < 0 {
			own += 8 * int64(len(c.Vals))
			plain++
		}
	}
	const runs = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		read()
	}
	runtime.ReadMemStats(&after)
	bytes := int64(after.TotalAlloc-before.TotalAlloc) / runs
	allocs := (after.Mallocs - before.Mallocs) / runs
	t.Logf("a section of %d B, %d rows × %d columns: %d B in %d allocations (pinned %d / %d); its late form holds %d indexes and %d plain columns, %d B",
		len(section), l.N, len(l.Cols), bytes, allocs, pinnedBytes, pinnedAllocs, len(l.Ins), plain, own)
	if bytes > pinnedBytes*5/4 || allocs > pinnedAllocs*5/4 {
		t.Errorf("decoding allocated %d B in %d allocations, over 1.25 x the pinned %d / %d", bytes, allocs, pinnedBytes, pinnedAllocs)
	}
	// Beyond the late form's own vectors, the levels and the rider's values
	// are a few hundred bytes: a named column's worth would be 8 B a row.
	if bytes-own >= 8*int64(l.N) {
		t.Errorf("decoding allocated %d B beyond the late form's own %d B: a named column's worth or more", bytes-own, own)
	}
}
