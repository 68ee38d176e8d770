package data_test

import (
	"bytes"
	"context"
	"io"
	"runtime"
	"runtime/debug"
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
// arena the gathered rows live in and the codec's tables (measured with
// go1.24.0 on amd64). The eager writer gathered all 14 named columns into
// 127,018 × 18 cells of scratch and allocated 18,682,240 B; the section is
// the same. A warm call allocates under a kilobyte either way.
func TestLateWriterCells(t *testing.T) {
	if raceDetector {
		t.Skip("pooled scratch is dropped at random under -race; the plain test job pins this")
	}
	const pinnedGathered, pinnedBytes = 385_108, 11_637_264
	outs := blockOutputs(t, 8, 0.05)
	out := outs[len(outs)-1]
	section, gathered, err := data.WriteLateCells(out)
	if err != nil {
		t.Fatal(err)
	}
	if want, err := data.WriteLateEager(out); err != nil || !bytes.Equal(section, want) {
		t.Fatalf("the section differs from the eager writer's (%v)", err)
	}
	// One P, no collection while measuring, and the codec's pool emptied by
	// the two collections before.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
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
	t.Logf("%d rows × %d columns over %d relations, a section of %d B: %d cells gathered, %d B allocated (pinned %d / %d)",
		out.N, len(out.Cols), len(out.Ins), len(section), gathered, allocated, pinnedGathered, pinnedBytes)
	if gathered != pinnedGathered {
		t.Errorf("the named columns gathered %d cells, pinned %d", gathered, pinnedGathered)
	}
	if allocated > pinnedBytes*5/4 {
		t.Errorf("writing the section allocated %d B, over 1.25 x the pinned %d", allocated, pinnedBytes)
	}
}
