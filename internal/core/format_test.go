package core

import (
	"os"
	"regexp"
	"strings"
	"testing"

	"github.com/essential-stats/etlopt/internal/workflow"
)

// formatExample decodes the workflow document docs/FORMAT.md shows.
func formatExample(t *testing.T) *workflow.Document {
	t.Helper()
	src, err := os.ReadFile("../../docs/FORMAT.md")
	if err != nil {
		t.Fatal(err)
	}
	block := regexp.MustCompile("(?s)```json\n(.*?)```").FindSubmatch(src)
	if block == nil {
		t.Fatal("docs/FORMAT.md has no json block")
	}
	doc, err := workflow.Decode(strings.NewReader(string(block[1])))
	if err != nil {
		t.Fatalf("the documented example is not a valid document: %v", err)
	}
	return doc
}

// TestDocumentedCatalogIsHonoured selects statistics for the documented
// example the way every subcommand does: Orders' hasSourceStats makes its
// raw statistics free, and the fds entry pid → qty prices the joint
// (pid, qty) histogram at |pid| instead of |pid|·|qty|.
func TestDocumentedCatalogIsHonoured(t *testing.T) {
	const joint = "H^{Orders.pid,Orders.qty}_{Orders@0}"
	// selectDoc selects over doc and returns the universe's price and
	// memory of every statistic by label, and whether joint was taken.
	selectDoc := func(doc *workflow.Document) (cost map[string]float64, mem map[string]int64, taken bool) {
		t.Helper()
		cfg := DefaultConfig()
		p := NewPlan(doc.Workflow, doc.Catalog, cfg.CSS)
		u, err := p.Universe()
		if err != nil {
			t.Fatalf("Universe: %v", err)
		}
		sel, err := p.Selection(cfg.Method)
		if err != nil {
			t.Fatalf("Selection: %v", err)
		}
		an := u.Res.Analysis
		cost, mem = map[string]float64{}, map[string]int64{}
		for i, s := range u.Stats {
			l := s.Label(an.Blocks[s.Target.Block])
			cost[l], mem[l] = u.Cost[i], u.Mem[i]
		}
		for _, s := range sel.Observe {
			taken = taken || s.Label(an.Blocks[s.Target.Block]) == joint
		}
		return cost, mem, taken
	}

	doc := formatExample(t)
	if rel := doc.Catalog.Relation("Orders"); rel == nil || !rel.HasSourceStats || len(doc.Catalog.FDs) != 1 {
		t.Fatal("the documented example no longer declares Orders' source statistics and one FD")
	}
	cost, mem, taken := selectDoc(doc)
	free := 0
	for l, c := range cost {
		if strings.HasSuffix(l, "_{Orders@0}") {
			free++
			if c != 0 {
				t.Errorf("%s costs %v; Orders publishes its statistics", l, c)
			}
		}
	}
	if free == 0 {
		t.Fatal("no statistic over the raw Orders relation in the universe")
	}
	if cost["|Product|"] != 1 {
		t.Errorf("|Product| costs %v; Product publishes nothing, want 1", cost["|Product|"])
	}
	if !taken {
		t.Errorf("the free %s was not taken", joint)
	}
	if mem[joint] != 500 {
		t.Errorf("%s: %d units with the FD pid → qty, want 500 (|pid|)", joint, mem[joint])
	}

	doc.Catalog.FDs = nil
	if _, mem, _ := selectDoc(doc); mem[joint] != 25000 {
		t.Errorf("%s: %d units without FDs, want 25000 (|pid|·|qty|)", joint, mem[joint])
	}
}
