package expr

import (
	"testing"
	"testing/quick"

	"github.com/essential-stats/etlopt/internal/workflow"
)

// chainBlock builds a block whose join graph is a path R0-R1-...-R(n-1),
// with the initial plan as the left-deep chain.
func chainBlock(t *testing.T, n int) *workflow.Block {
	t.Helper()
	cat := &workflow.Catalog{}
	b := workflow.NewBuilder("chain")
	var prev workflow.NodeID
	var prevRel string
	for i := 0; i < n; i++ {
		rel := relName(i)
		cat.Relations = append(cat.Relations, &workflow.Relation{
			Name: rel, Card: 100,
			Columns: []workflow.Column{{Name: "k", Domain: 10}, {Name: "j", Domain: 10}},
		})
		src := b.Source(rel)
		if i == 0 {
			prev, prevRel = src, rel
			continue
		}
		prev = b.Join(prev, src, workflow.Attr{Rel: prevRel, Col: "j"}, workflow.Attr{Rel: rel, Col: "k"})
		prevRel = rel
	}
	b.Sink(prev, "dw")
	an, err := workflow.Analyze(b.Graph(), cat)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if len(an.Blocks) != 1 {
		t.Fatalf("chain: got %d blocks, want 1", len(an.Blocks))
	}
	return an.Blocks[0]
}

// starBlock builds a star join: center R0 joined to spokes R1..R(n-1), each
// on its own attribute of the center.
func starBlock(t *testing.T, n int) *workflow.Block {
	t.Helper()
	cat := &workflow.Catalog{}
	center := &workflow.Relation{Name: "R0", Card: 1000}
	for i := 1; i < n; i++ {
		center.Columns = append(center.Columns, workflow.Column{Name: fk(i), Domain: 10})
	}
	cat.Relations = append(cat.Relations, center)
	b := workflow.NewBuilder("star")
	prev := b.Source("R0")
	for i := 1; i < n; i++ {
		rel := relName(i)
		cat.Relations = append(cat.Relations, &workflow.Relation{
			Name: rel, Card: 10,
			Columns: []workflow.Column{{Name: "k", Domain: 10}},
		})
		src := b.Source(rel)
		prev = b.Join(prev, src, workflow.Attr{Rel: "R0", Col: fk(i)}, workflow.Attr{Rel: rel, Col: "k"})
	}
	b.Sink(prev, "dw")
	an, err := workflow.Analyze(b.Graph(), cat)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	return an.Blocks[0]
}

func relName(i int) string { return "R" + string(rune('0'+i)) }
func fk(i int) string      { return "f" + string(rune('0'+i)) }

func TestSetOps(t *testing.T) {
	s := NewSet(0, 2, 5)
	if !s.Has(2) || s.Has(1) {
		t.Fatal("Has broken")
	}
	if s.Len() != 3 {
		t.Fatalf("Len = %d, want 3", s.Len())
	}
	if s.Lowest() != 0 {
		t.Fatalf("Lowest = %d, want 0", s.Lowest())
	}
	if got := s.Add(1); got.Len() != 4 {
		t.Fatal("Add broken")
	}
	if got := s.Without(NewSet(0)); got != NewSet(2, 5) {
		t.Fatal("Without broken")
	}
	if !s.contains(NewSet(0, 5)) || s.contains(NewSet(0, 1)) {
		t.Fatal("Contains broken")
	}
	if !s.Intersects(NewSet(5)) || s.Intersects(NewSet(1, 3)) {
		t.Fatal("Intersects broken")
	}
	members := s.Members()
	want := []int{0, 2, 5}
	for i := range want {
		if members[i] != want[i] {
			t.Fatalf("Members = %v, want %v", members, want)
		}
	}
	if Set(0).Lowest() != -1 {
		t.Fatal("Lowest of empty should be -1")
	}
}

func TestSubsetsVisitsEachPartitionOnce(t *testing.T) {
	s := NewSet(0, 1, 2, 3)
	seen := make(map[Set]bool)
	s.subsets(func(sub Set) {
		if !sub.Has(0) {
			t.Errorf("subset %b misses lowest member", sub)
		}
		if sub == s || sub.Empty() {
			t.Errorf("subset %b not proper", sub)
		}
		if seen[sub] {
			t.Errorf("subset %b visited twice", sub)
		}
		seen[sub] = true
	})
	// Proper nonempty subsets containing bit 0: 2^3 - 1 = 7.
	if len(seen) != 7 {
		t.Fatalf("visited %d subsets, want 7", len(seen))
	}
}

func TestSubsetsPropertyCount(t *testing.T) {
	f := func(raw uint16) bool {
		s := Set(raw)
		if s.Len() < 2 {
			return true
		}
		count := 0
		s.subsets(func(Set) { count++ })
		want := 1<<(s.Len()-1) - 1
		return count == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEnumerateChain3(t *testing.T) {
	// The retail example of the paper: SEs are O,P,C,OP,OC,OPC (PC is a
	// cross product and never generated).
	blk := chainBlock(t, 3)
	sp, err := Enumerate(blk)
	if err != nil {
		t.Fatalf("Enumerate: %v", err)
	}
	if len(sp.SEs) != 6 {
		t.Fatalf("got %d SEs, want 6: %v", len(sp.SEs), sp.SEs)
	}
	full := sp.Full()
	if full.Len() != 3 {
		t.Fatalf("full = %v", full)
	}
	// OPC has exactly two plans: OP⋈C and OC⋈P (chain R0-R1, R1-R2: splits
	// {R0,R1}+{R2} and {R0}+{R1,R2}; {R0,R2} is disconnected).
	if got := len(sp.Plans[full]); got != 2 {
		t.Fatalf("full SE has %d plans, want 2: %+v", got, sp.Plans[full])
	}
	for _, p := range sp.Plans[full] {
		if !p.Left.Has(0) {
			t.Errorf("plan left %v must contain lowest input", p.Left)
		}
		if p.Left.Union(p.Right) != full || p.Left.Intersects(p.Right) {
			t.Errorf("plan %v/%v is not a partition", p.Left, p.Right)
		}
	}
}

func TestEnumerateChainSECounts(t *testing.T) {
	// A path of n relations has n(n+1)/2 connected subsets (intervals).
	for n := 2; n <= 6; n++ {
		blk := chainBlock(t, n)
		sp, err := Enumerate(blk)
		if err != nil {
			t.Fatalf("Enumerate(%d): %v", n, err)
		}
		want := n * (n + 1) / 2
		if len(sp.SEs) != want {
			t.Errorf("chain %d: got %d SEs, want %d", n, len(sp.SEs), want)
		}
	}
}

func TestEnumerateStarSECounts(t *testing.T) {
	// A star with center + k spokes has 2^k + k connected subsets.
	for n := 3; n <= 6; n++ {
		blk := starBlock(t, n)
		sp, err := Enumerate(blk)
		if err != nil {
			t.Fatalf("Enumerate(%d): %v", n, err)
		}
		k := n - 1
		want := 1<<k + k
		if len(sp.SEs) != want {
			t.Errorf("star %d: got %d SEs, want %d", n, len(sp.SEs), want)
		}
	}
}

func TestEnumerateInitialPlanObservable(t *testing.T) {
	blk := chainBlock(t, 4)
	sp, err := Enumerate(blk)
	if err != nil {
		t.Fatalf("Enumerate: %v", err)
	}
	// The left-deep initial plan makes R0, R1, R2, R3, R0R1, R0R1R2 and
	// the full SE observable: 7 SEs.
	if len(sp.Initial) != 7 {
		t.Fatalf("initial SEs = %d, want 7 (%v)", len(sp.Initial), sp.Initial)
	}
	if !sp.Initial[NewSet(0, 1)] || !sp.Initial[NewSet(0, 1, 2)] {
		t.Error("left-deep prefixes should be observable")
	}
	if sp.Initial[NewSet(1, 2)] {
		t.Error("R1⋈R2 is not produced by the initial plan")
	}
	// InitialTree records the composition of each internal SE.
	p, ok := sp.InitialTree[sp.Full()]
	if !ok {
		t.Fatal("initial tree missing full SE")
	}
	if p.Left != NewSet(0, 1, 2) || p.Right != NewSet(3) {
		t.Errorf("initial composition of full = %v ⋈ %v", p.Left, p.Right)
	}
}

func TestAttrClassesSharedKey(t *testing.T) {
	// T1 joins both T2 and T3 on the same attribute T1.a: all three join
	// attrs form one equivalence class (the J12 = J13 case of Figure 7).
	cat := &workflow.Catalog{Relations: []*workflow.Relation{
		{Name: "T1", Card: 10, Columns: []workflow.Column{{Name: "a", Domain: 5}}},
		{Name: "T2", Card: 10, Columns: []workflow.Column{{Name: "a", Domain: 5}}},
		{Name: "T3", Card: 10, Columns: []workflow.Column{{Name: "a", Domain: 5}}},
	}}
	b := workflow.NewBuilder("shared")
	t1 := b.Source("T1")
	t2 := b.Source("T2")
	t3 := b.Source("T3")
	j1 := b.Join(t1, t2, workflow.Attr{Rel: "T1", Col: "a"}, workflow.Attr{Rel: "T2", Col: "a"})
	j2 := b.Join(j1, t3, workflow.Attr{Rel: "T1", Col: "a"}, workflow.Attr{Rel: "T3", Col: "a"})
	b.Sink(j2, "dw")
	an, err := workflow.Analyze(b.Graph(), cat)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	sp, err := Enumerate(an.Blocks[0])
	if err != nil {
		t.Fatalf("Enumerate: %v", err)
	}
	rep := sp.ClassOf(workflow.Attr{Rel: "T3", Col: "a"})
	if rep != (workflow.Attr{Rel: "T1", Col: "a"}) {
		t.Fatalf("ClassOf(T3.a) = %v, want T1.a", rep)
	}
	if got := len(sp.ClassMembers(workflow.Attr{Rel: "T2", Col: "a"})); got != 3 {
		t.Fatalf("class size = %d, want 3", got)
	}
	// With the shared key, T2⋈T3 IS connected through the equivalence
	// class in principle, but our join graph has no direct T2-T3 edge, so
	// it remains a non-SE; the full SE must still have 2 plans.
	if got := len(sp.Plans[sp.Full()]); got != 2 {
		t.Fatalf("full has %d plans, want 2", got)
	}
	// MemberIn finds a class member inside any SE touching the class.
	if m, ok := sp.MemberIn(NewSet(2), workflow.Attr{Rel: "T1", Col: "a"}); !ok || m != (workflow.Attr{Rel: "T3", Col: "a"}) {
		t.Fatalf("MemberIn({T3}, class a) = %v, %v", m, ok)
	}
	if _, ok := sp.MemberIn(NewSet(1), workflow.Attr{Rel: "T1", Col: "x"}); ok {
		t.Fatal("MemberIn should fail for attrs outside the SE")
	}
}

func TestEnumerateDisconnected(t *testing.T) {
	// Two inputs with no join edge: Analyze will build a block only if the
	// graph joins them, so fabricate a block directly.
	blk := &workflow.Block{
		Inputs: []workflow.BlockInput{{Name: "A"}, {Name: "B"}},
	}
	if _, err := Enumerate(blk); err == nil {
		t.Fatal("Enumerate(disconnected): want error")
	}
}

func TestEnumerateSingleInput(t *testing.T) {
	blk := &workflow.Block{Inputs: []workflow.BlockInput{{Name: "A"}}}
	sp, err := Enumerate(blk)
	if err != nil {
		t.Fatalf("Enumerate: %v", err)
	}
	if len(sp.SEs) != 1 || !sp.Initial[NewSet(0)] {
		t.Fatalf("single-input space: %+v", sp)
	}
}

func TestConnectedProperty(t *testing.T) {
	// Every enumerated SE is connected and every subset not enumerated of
	// the full set is either disconnected or empty.
	blk := chainBlock(t, 5)
	sp, err := Enumerate(blk)
	if err != nil {
		t.Fatalf("Enumerate: %v", err)
	}
	enumerated := make(map[Set]bool, len(sp.SEs))
	for _, se := range sp.SEs {
		enumerated[se] = true
		if !sp.Connected(se) {
			t.Errorf("SE %v not connected", se)
		}
	}
	for v := Set(1); v <= sp.Full(); v++ {
		if sp.Full().contains(v) && !enumerated[v] && sp.Connected(v) {
			t.Errorf("connected subset %v missing from SEs", v)
		}
	}
}

func TestPlanCountsLeftDeepInvariant(t *testing.T) {
	// For every SE of size ≥ 2 there is at least one plan, and every plan
	// joins two disjoint connected halves via a real edge.
	blk := starBlock(t, 6)
	sp, err := Enumerate(blk)
	if err != nil {
		t.Fatalf("Enumerate: %v", err)
	}
	for _, se := range sp.SEs {
		if se.Len() < 2 {
			continue
		}
		plans := sp.Plans[se]
		if len(plans) == 0 {
			t.Errorf("SE %v has no plans", se)
		}
		for _, p := range plans {
			if !sp.Connected(p.Left) || !sp.Connected(p.Right) {
				t.Errorf("plan %v/%v has disconnected side", p.Left, p.Right)
			}
			e := sp.Block.Joins[p.Edge]
			l, r := NewSet(e.LeftInput), NewSet(e.RightInput)
			sides := p.Left.contains(l) && p.Right.contains(r) ||
				p.Left.contains(r) && p.Right.contains(l)
			if !sides {
				t.Errorf("plan %v/%v edge %d does not link the halves", p.Left, p.Right, p.Edge)
			}
		}
	}
}

func TestLabel(t *testing.T) {
	blk := chainBlock(t, 3)
	sp, _ := Enumerate(blk)
	if got := sp.Full().Label(blk); got != "R0⋈R1⋈R2" {
		t.Fatalf("Label = %q", got)
	}
	if got := Set(0).Label(blk); got != "∅" {
		t.Fatalf("Label(empty) = %q", got)
	}
}
