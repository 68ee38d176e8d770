package wftest

import (
	"testing"

	"github.com/essential-stats/etlopt/internal/workflow"
)

func TestGenerateValidAndDeterministic(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		g1, cat1, db1 := Generate(seed, Options{})
		// Analyze validates the graph first.
		if _, err := workflow.Analyze(g1, cat1); err != nil {
			t.Fatalf("seed %d: Analyze: %v", seed, err)
		}
		g2, _, db2 := Generate(seed, Options{})
		if len(g1.Nodes) != len(g2.Nodes) {
			t.Fatalf("seed %d: node count differs across runs", seed)
		}
		for rel, t1 := range db1 {
			t2 := db2[rel]
			if t2 == nil || t1.Card() != t2.Card() {
				t.Fatalf("seed %d: table %s differs", seed, rel)
			}
		}
	}
}

func TestGenerateBounds(t *testing.T) {
	g, _, db := Generate(7, Options{MaxRelations: 3, MaxCard: 50})
	srcs := 0
	for _, n := range g.Nodes {
		if n.Kind == workflow.KindSource {
			srcs++
		}
	}
	if srcs > 4 { // 3 relations + optional Band
		t.Fatalf("sources = %d, above bound", srcs)
	}
	for rel, tbl := range db {
		if rel != "Band" && tbl.Card() > 50 {
			t.Fatalf("%s has %d rows, above MaxCard", rel, tbl.Card())
		}
	}
}
