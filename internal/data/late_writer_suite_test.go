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

// blockOutputs runs a suite workflow block by block, every upstream output
// held in its late form as a worker holds it, and returns each block's
// output.
func blockOutputs(t *testing.T, id int, scale float64) []*data.Late {
	t.Helper()
	w := suite.MustGet(id)
	an, err := workflow.Analyze(w.Graph, w.Catalog)
	if err != nil {
		t.Fatal(err)
	}
	e := engine.New(an, w.Data(scale), nil)
	held := make(map[int]*data.Late)
	var outs []*data.Late
	for _, blk := range an.Blocks {
		rb, err := e.RunBlockCtx(context.Background(), blk.Index, nil, nil, nil, held)
		if err != nil {
			t.Fatalf("%s block %d: %v", w.Name, blk.Index, err)
		}
		held[blk.Index] = rb.Out
		outs = append(outs, rb.Out)
	}
	return outs
}

// TestLateWriterModelSuite writes every block output of every suite
// workflow at 0.002 (wf10, wf16 and wf24 left out, as in the other
// full-suite sweeps) and reads each back to its own rows. It pins the
// sections left in index form — group-by outputs, which read no relation,
// and the joins that probe one — and what all 37 sections take deflated
// (compress/flate at level 6, no dictionary, go1.24.0): 5,956 B, where with
// the map and chain column encodings, and wf08's last block in index form,
// they took 5,995 B.
func TestLateWriterModelSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite sweep")
	}
	const pinnedDeflated = 5_956
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
// made as a worker makes it with both upstream outputs held: the expansion
// search's row marks, the levels' surviving rows and key indexes, the rider
// it keys T4 by — U.c, a transform's output, sent once a step of T1 — and
// the codec's tables (measured with go1.24.0 on amd64). While T4's level
// had no key, the section sent its four row indexes, widened to cells, and
// named columns were gathered into an arena for the map and chain searches:
// 11,769,600 B.
func TestLateWriterCells(t *testing.T) {
	if raceDetector {
		t.Skip("pooled scratch is dropped at random under -race; the plain test job pins this")
	}
	const pinnedBytes = 1_181_656
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
// rider's values live in that scratch too; while each call made its own,
// a warm call allocated 21,296 B. The pin is a measured value (go1.24.0 on
// amd64); the bound leaves a quarter for Go-release drift.
func TestWriteLateWarmAllocs(t *testing.T) {
	const pinnedBytes = 1_504
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
// whose levels a transform's output keys, and every block output of every
// multi-block suite workflow at 0.002: each reads back to exactly the late
// table's index vectors and columns, and the writer makes the same bytes
// twice. Some keyed joins must expand through a keying rider. The tables
// are checked concurrently, a goroutine a core; run it under -race at -cpu
// 1,4 too.
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
					names, lates = append(names, fmt.Sprintf("%s block %d", w.Name, b)), append(lates, out)
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
	if count["join"][0] == 0 || count["join, moved"][2] == 0 || count["generated"][2] == 0 || count["join, keyed"][1] == 0 {
		t.Errorf("%v: want some joins expanded, some through a keying rider, and some tables not", count)
	}
}

// TestReadLateAllocs pins what a coordinator's reader allocates decoding
// wf08@0.05's last block section, made as a worker makes it — both
// upstream outputs held — and read with the codec's scratch warm, as a
// session reads: the late table's own vectors, an index of 4 B a row for
// each of the four relations it names and 8 B a row for its one column no
// relation holds, U.c, and the expansion's levels and rider, which make
// them. The pins are measured values (go1.24.0 on amd64); the bound leaves
// a quarter for Go-release drift.
func TestReadLateAllocs(t *testing.T) {
	if raceDetector {
		t.Skip("pooled scratch is dropped at random under -race; the plain test job pins this")
	}
	const (
		pinnedBytes  = 3_094_203
		pinnedAllocs = 67
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
