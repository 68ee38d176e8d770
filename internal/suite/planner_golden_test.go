package suite

import (
	"bufio"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"github.com/essential-stats/etlopt/internal/costmodel"
	"github.com/essential-stats/etlopt/internal/css"
	"github.com/essential-stats/etlopt/internal/selector"
	"github.com/essential-stats/etlopt/internal/workflow"
)

var updatePlannerDigest = flag.Bool("update-planner-digest", false, "rewrite testdata/planner.digest")

// plannerBudgets are the per-run memory limits whose PlanWithBudget
// schedules the digest pins: the two hard limits of the experiments' budget
// sweep (64 is also what the schedule tests and `etlopt schedule` examples
// use), which force one to eleven runs across the suite.
var plannerBudgets = []int64{64, 4}

// renderPlanner writes the canonical text form of everything the planner
// decides for one workflow: the statistic universe in order, its
// observability bits, every candidate set, S_C, and the selections of each
// solver tier and budget.
func renderPlanner(w *Workflow) (string, error) {
	an, err := workflow.Analyze(w.Graph, w.Catalog)
	if err != nil {
		return "", err
	}
	res, err := css.Generate(an, css.DefaultOptions())
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s stats=%d css=%d ses=%d\n", w.Name, len(res.Stats), res.NumCSS(), res.NumSEs())
	for i, s := range res.Stats {
		fmt.Fprintf(&sb, "%d %v obs=%t rej=%t\n", i, s.Key(), res.Observable[i], res.NeedsRejectLink[i])
		for _, c := range res.CSS[i] {
			fmt.Fprintf(&sb, "  %s %v", c.Rule, c.Join)
			for _, in := range c.Inputs {
				fmt.Fprintf(&sb, " %d", in)
			}
			sb.WriteByte('\n')
		}
	}
	sb.WriteString("required")
	for i, s := range res.Required {
		if id, ok := res.Lookup(s); !ok || id != res.RequiredIDs[i] {
			return "", fmt.Errorf("required statistic %v: Lookup = %d, %t; RequiredIDs has %d", s.Key(), id, ok, res.RequiredIDs[i])
		}
		fmt.Fprintf(&sb, " %d", res.RequiredIDs[i])
	}
	sb.WriteByte('\n')

	coster := costmodel.NewMemoryCoster(res, an.Cat)
	renderSel := func(tier string, u *selector.Universe, m selector.Method) error {
		sel, err := selector.SelectUniverse(u, selector.Options{Method: m})
		if err != nil {
			return fmt.Errorf("%s: %w", tier, err)
		}
		fmt.Fprintf(&sb, "%s universe=%d cost=%v mem=%d optimal=%t method=%s nodes=%d\n",
			tier, len(u.Stats), sel.Cost, sel.Memory, sel.Optimal, sel.Method, sel.Nodes)
		for _, s := range sel.Observe {
			fmt.Fprintf(&sb, "  %v\n", s.Key())
		}
		return nil
	}
	u, err := selector.NewUniverseOpts(res, coster, selector.UniverseOptions{})
	if err != nil {
		return "", err
	}
	sb.WriteString("cost")
	for i := range u.Stats {
		fmt.Fprintf(&sb, " %v/%d", u.Cost[i], u.Mem[i])
	}
	sb.WriteByte('\n')
	if err := renderSel("exact", u, selector.MethodExact); err != nil {
		return "", err
	}
	if err := renderSel("greedy", u, selector.MethodGreedy); err != nil {
		return "", err
	}
	for _, budget := range plannerBudgets {
		plan, err := selector.PlanWithBudget(u, budget)
		if err != nil {
			fmt.Fprintf(&sb, "budget %d: %v\n", budget, err)
			continue
		}
		fmt.Fprintf(&sb, "budget %d: runs=%v mem=%v total=%v\n", budget, plan.Runs, plan.Memory, plan.TotalCost)
	}
	return sb.String(), nil
}

// TestPlannerDigest pins the planner's structure — not just its final
// selection — for all 30 suite workflows: one SHA-256 per workflow over
// renderPlanner's text, compared with testdata/planner.digest.
func TestPlannerDigest(t *testing.T) {
	const path = "testdata/planner.digest"
	var got []string
	for _, w := range All() {
		text, err := renderPlanner(w)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		got = append(got, fmt.Sprintf("%s %x", w.Name, sha256.Sum256([]byte(text))))
	}
	if *updatePlannerDigest {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []string
	for sc := bufio.NewScanner(f); sc.Scan(); {
		want = append(want, sc.Text())
	}
	if len(want) != len(got) {
		t.Fatalf("%s has %d lines, want %d", path, len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("planner digest differs: got %q, want %q", got[i], want[i])
		}
	}
}
