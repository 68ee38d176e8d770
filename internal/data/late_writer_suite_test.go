package data_test

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
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

// TestLateWriterModelSuite holds WriteLate to the eager writer
// (late_writer_test.go) byte for byte on every block output of every
// multi-block suite workflow at 0.002 (wf10, wf16 and wf24 left out as in
// the other full-suite sweeps).
func TestLateWriterModelSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite sweep")
	}
	outputs := 0
	for _, w := range suite.All() {
		switch w.ID {
		case 10, 16, 24:
			continue
		}
		outs := blockOutputs(t, w.ID, 0.002)
		if len(outs) < 2 {
			continue
		}
		for b, out := range outs {
			want, err := data.WriteLateEager(out)
			if err != nil {
				t.Fatalf("%s block %d: eager writer: %v", w.Name, b, err)
			}
			var got bytes.Buffer
			if err := data.WriteLate(&got, out); err != nil {
				t.Fatalf("%s block %d: %v", w.Name, b, err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Errorf("%s block %d: WriteLate wrote %d bytes, the eager writer %d, and they differ", w.Name, b, got.Len(), len(want))
			}
			outputs++
		}
	}
	if outputs == 0 {
		t.Fatal("no multi-block workflow ran")
	}
	t.Logf("%d block outputs", outputs)
}

// TestLateWriterCells pins what WriteLate gathers and allocates for
// wf08@0.05's last block output, made as a worker makes it with both
// upstream outputs held, from an empty pool: exactly the cells its named
// columns gather — the rows determinant passes read, about three of its 14
// named columns' worth — and, within a quarter for Go-release drift, the
// bytes the call allocates: the four row indexes widened to cells, the
// arena the gathered rows live in, the codec's tables and a mark a row for
// the expansion search, which finds none — T4 joins on a transform's output
// — so the section sends the indexes (measured with go1.24.0 on amd64).
// The eager writer gathered all 14 named columns into 127,018 × 18 cells of
// scratch and allocated 18,682,240 B; the section is the same. Two of
// T1's named columns are gathered whole, by map passes over them (the
// plain column is a function of each); recurs, which answers for a named
// column of distinct values from its row index, gathers no row here.
func TestLateWriterCells(t *testing.T) {
	if raceDetector {
		t.Skip("pooled scratch is dropped at random under -race; the plain test job pins this")
	}
	const pinnedGathered, pinnedBytes = 385_108, 11_769_600
	outs := blockOutputs(t, 8, 0.05)
	out := outs[len(outs)-1]
	section, gathered, err := data.WriteLateCells(out)
	if err != nil {
		t.Fatal(err)
	}
	if want, err := data.WriteLateEager(out); err != nil || !bytes.Equal(section, want) {
		t.Fatalf("the section differs from the eager writer's (%v)", err)
	}
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
	t.Logf("%d rows × %d columns over %d relations, a section of %d B: %d cells gathered, %d B allocated (pinned %d / %d)",
		out.N, len(out.Cols), len(out.Ins), len(section), gathered, allocated, pinnedGathered, pinnedBytes)
	if gathered != pinnedGathered {
		t.Errorf("the named columns gathered %d cells, pinned %d", gathered, pinnedGathered)
	}
	if allocated > pinnedBytes*5/4 {
		t.Errorf("writing the section allocated %d B, over 1.25 x the pinned %d", allocated, pinnedBytes)
	}
}

// TestWriteLateWarmAllocs pins what a warm WriteLate allocates for
// wf08@0.05's last block, the largest section a dist-run round encodes,
// when collections ran since the call before, as they do between a
// worker's rounds: the scratch that call grew is still on the codec's free
// list, where a sync.Pool's was emptied and grown again from nothing,
// 11,642,712 B a call. The pin is a measured value (go1.24.0 on amd64); the
// bound leaves a quarter for Go-release drift.
func TestWriteLateWarmAllocs(t *testing.T) {
	const pinnedBytes = 2_448
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

// TestLateExpansionModel holds expanded sections to the index vectors they
// replace, over 200 of TestLateTableModel's generated tables, 200 joins in
// the engine's order and those joins with two rows moved, and every block
// output of every multi-block suite workflow at 0.002: a section the writer
// expands reads back to exactly the late table's index vectors and columns,
// and any other section is the eager writer's byte for byte. The tables
// are checked concurrently, a goroutine a core; run it under -race at
// -cpu 1,4 too.
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
	expanded, errs := make([]bool, len(lates)), make([]error, len(lates))
	procs := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	for g := 0; g < procs; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := g; i < len(lates); i += procs {
				expanded[i], errs[i] = data.CheckExpansion(lates[i])
			}
		}()
	}
	wg.Wait()
	count := map[string][2]int{} // kind: expanded, index columns
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
		if expanded[i] {
			c[0]++
		} else {
			c[1]++
		}
		count[kind] = c
	}
	t.Logf("%d tables, by kind [expanded, index columns]: %v", len(lates), count)
	if count["join"][0] == 0 || count["join, moved"][1] == 0 || count["generated"][1] == 0 {
		t.Errorf("%v: want some joins expanded and some tables not", count)
	}
}

// TestReadLateAllocs pins what a coordinator's reader allocates decoding
// wf08@0.05's last block section, made as a worker makes it — both
// upstream outputs held — and read with the codec's scratch warm, as a
// session reads: the late table's own vectors, an index of 4 B a row for
// each of the four relations it names and 8 B a row for its one column no
// relation holds, and nothing for its named columns. The one a chain reads
// (the probe key, which the build side's index chains over) is gathered
// into the scratch's arena, and counted; the other nine never are. The
// section is in its index form: T4 joins on a transform's output, so no
// expansion makes its rows. The pins are measured values (go1.24.0 on
// amd64); the bound leaves a quarter for Go-release drift.
func TestReadLateAllocs(t *testing.T) {
	if raceDetector {
		t.Skip("pooled scratch is dropped at random under -race; the plain test job pins this")
	}
	const (
		pinnedBytes  = 3_090_961
		pinnedAllocs = 58
		determinants = 1
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
	// A named column gathered outside the arena would cost 8 B a row beyond
	// what the late form holds.
	if bytes-own >= 8*int64(l.N) {
		t.Errorf("decoding allocated %d B beyond the late form's own %d B: a named column's worth or more", bytes-own, own)
	}
	if gathered, err := data.ReadLateDeterminants(section, db); err != nil || gathered != determinants {
		t.Errorf("decoding gathered %d named column(s) as determinants (%v), want %d", gathered, err, determinants)
	}
}
