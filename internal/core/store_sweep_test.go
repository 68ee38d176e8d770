package core

import (
	"bytes"
	"testing"

	"github.com/essential-stats/etlopt/internal/stats"
	"github.com/essential-stats/etlopt/internal/suite"
)

// TestObservedStoresRoundTrip holds the store writer's section limits to
// what runs observe: every runnable suite workflow's observed store at scale
// 0.002 is written (no histogram section is refused as too dense, nor as
// spending under a byte a bucket) and read back to the same bytes. wf10,
// wf16 and wf24 are left out: their joins explode at this scale.
func TestObservedStoresRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite sweep")
	}
	for _, w := range suite.All() {
		switch w.ID {
		case 10, 16, 24:
			continue
		}
		t.Run(w.Name, func(t *testing.T) {
			cy, err := Run(w.Graph, w.Catalog, w.Data(0.002), DefaultConfig())
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			var buf bytes.Buffer
			if _, err := cy.Observed.Observed.WriteTo(&buf); err != nil {
				t.Fatalf("WriteTo: %v", err)
			}
			back, err := stats.ReadStore(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatalf("ReadStore: %v", err)
			}
			t.Logf("%d values in %d bytes", back.Len(), buf.Len())
			var again bytes.Buffer
			if _, err := back.WriteTo(&again); err != nil || !bytes.Equal(again.Bytes(), buf.Bytes()) {
				t.Fatalf("the store read back writes %d bytes (%v), want the %d read", again.Len(), err, buf.Len())
			}
		})
	}
}
