package stats

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"github.com/essential-stats/etlopt/internal/expr"
	"github.com/essential-stats/etlopt/internal/workflow"
)

// TestHLLEstimateAccuracy: at the default precision (512 registers) the
// estimate must land within ~3 standard errors of truth across a range of
// cardinalities.
// hllDistinct and cmHist spell the sketch statistics over one attribute.
func hllDistinct(t Target, a workflow.Attr) Stat {
	return Stat{Kind: HLLDistinct, Target: t, Attrs: []workflow.Attr{a}}
}

func cmHist(t Target, a workflow.Attr) Stat {
	return Stat{Kind: CMHist, Target: t, Attrs: []workflow.Attr{a}}
}

func TestHLLEstimateAccuracy(t *testing.T) {
	for _, n := range []int64{0, 1, 10, 100, 1000, 10000, 200000} {
		h := NewHLL(DefaultHLLP)
		for i := int64(0); i < n; i++ {
			h.Add(i * 7)
		}
		est := h.Estimate()
		if n == 0 {
			if est != 0 {
				t.Fatalf("empty sketch estimates %d", est)
			}
			continue
		}
		relErr := math.Abs(float64(est)-float64(n)) / float64(n)
		tol := 3 * 1.04 / math.Sqrt(float64(len(h.Regs)))
		if n < 100 {
			tol = 0.25 // linear-counting range on tiny counts
		}
		if relErr > tol {
			t.Errorf("n=%d: estimate %d (rel err %.3f > %.3f)", n, est, relErr, tol)
		}
	}
}

// TestCMHBucketEstimates: count-min only over-estimates, and the dot
// product tracks the exact bucketized dot product within the collision
// overhead.
func TestCMHBucketEstimates(t *testing.T) {
	spec := CMSpecFor(1, 640)
	cm := NewCMH(spec, DefaultCMDepth, DefaultCMWidth)
	h := NewHistogram(workflow.Attr{Rel: "T", Col: "a"})
	for i := int64(0); i < 6400; i++ {
		v := i%640 + 1
		cm.Observe(v)
		h.Add(v)
	}
	ex, err := Bucketize(h, spec)
	if err != nil {
		t.Fatal(err)
	}
	for b := 0; b < spec.N; b++ {
		if est := float64(cm.BucketEstimate(b)); est < ex.Totals[b] {
			t.Errorf("bucket %d: count-min under-estimated %v < %v", b, est, ex.Totals[b])
		}
	}
	exact, err := ApproxDotProduct(ex, ex)
	if err != nil {
		t.Fatal(err)
	}
	approx, err := CMDotProduct(cm, cm)
	if err != nil {
		t.Fatal(err)
	}
	if approx < exact {
		t.Fatalf("cm dot product %v below exact bucketized %v", approx, exact)
	}
	if approx > 4*exact {
		t.Fatalf("cm dot product %v unusably above exact bucketized %v", approx, exact)
	}
}

// TestStoreSketchShapes: the registry-driven Put enforces kind/shape
// agreement in both directions and tags sketch values Approx.
func TestStoreSketchShapes(t *testing.T) {
	a := workflow.Attr{Rel: "T", Col: "a"}
	st := NewStore()
	hllStat := hllDistinct(BlockSE(0, expr.NewSet(0)), a)
	cmStat := cmHist(BlockSE(0, expr.NewSet(0)), a)
	var ke *kindError
	if err := st.Put(&Value{Stat: hllStat, Scalar: 1}); !errors.As(err, &ke) {
		t.Fatalf("scalar Put on hll stat: %v", err)
	}
	if err := st.Put(&Value{Stat: NewDistinct(BlockSE(0, expr.NewSet(0)), a), HLL: NewHLL(DefaultHLLP)}); !errors.As(err, &ke) {
		t.Fatalf("HLL Put on distinct stat: %v", err)
	}
	if err := st.Put(&Value{Stat: hllStat, HLL: NewHLL(DefaultHLLP)}); err != nil {
		t.Fatal(err)
	}
	if err := st.Put(&Value{Stat: cmStat, CM: NewCMH(CMSpecFor(1, 10), 2, 8)}); err != nil {
		t.Fatal(err)
	}
	if v, ok := st.Get(hllStat); !ok || v.HLL == nil || !v.Approx {
		t.Fatalf("Get(hll) = %+v, %v", v, ok)
	}
	if v, ok := st.Get(cmStat); !ok || v.CM == nil || !v.Approx {
		t.Fatalf("Get(cm) = %+v, %v", v, ok)
	}
	if st.MemoryUnits() != (1<<DefaultHLLP)/8+2*8 {
		t.Fatalf("memory units %d", st.MemoryUnits())
	}
}

// TestApproxVariant pins the exact↔approx pairing rules.
func TestApproxVariant(t *testing.T) {
	a := workflow.Attr{Rel: "T", Col: "a"}
	b := workflow.Attr{Rel: "T", Col: "b"}
	if _, ok := ApproxVariant(NewCard(BlockSE(0, expr.NewSet(0)))); ok {
		t.Fatal("card has no sketch variant")
	}
	v, ok := ApproxVariant(NewDistinct(BlockSE(0, expr.NewSet(0)), a, b))
	if !ok || v.Kind != HLLDistinct || len(v.Attrs) != 2 {
		t.Fatalf("distinct variant = %+v, %v", v, ok)
	}
	if back, ok := ExactVariant(v); !ok || back.Kind != Distinct {
		t.Fatalf("exact variant = %+v, %v", back, ok)
	}
	if _, ok := ApproxVariant(NewHist(BlockSE(0, expr.NewSet(0)), a, b)); ok {
		t.Fatal("joint histogram must not have a cm variant")
	}
	if _, ok := ApproxVariant(NewHist(BlockRejectSE(0, expr.NewSet(0, 1), 0, 0), a)); ok {
		t.Fatal("reject-target histogram must not have a cm variant")
	}
	if hv, ok := ApproxVariant(NewHist(BlockSE(0, expr.NewSet(0)), a)); !ok || hv.Kind != CMHist {
		t.Fatalf("single-attr histogram variant = %+v, %v", hv, ok)
	}
}

// TestDriftCrossTier: drift between a sketch generation and an exact
// generation of the same target pairs the sibling kinds — in both
// orderings — instead of reporting disjoint stores.
func TestDriftCrossTier(t *testing.T) {
	a := workflow.Attr{Rel: "T", Col: "a"}
	tgt := BlockSE(0, expr.NewSet(0))

	exact := NewStore()
	exact.Put(&Value{Stat: NewDistinct(tgt, a), Scalar: 1000})
	h := NewHistogram(a)
	for i := int64(1); i <= 500; i++ {
		h.Inc([]int64{i}, 4)
	}
	exact.Put(&Value{Stat: NewHist(tgt, a), Hist: h})

	approx := NewStore()
	hll := NewHLL(DefaultHLLP)
	for i := int64(0); i < 1000; i++ {
		hll.Add(i)
	}
	approx.Put(&Value{Stat: hllDistinct(tgt, a), HLL: hll})
	cm := NewCMH(CMSpecFor(1, 500), DefaultCMDepth, DefaultCMWidth)
	for i := int64(1); i <= 500; i++ {
		cm.Inc(i, 4)
	}
	approx.Put(&Value{Stat: cmHist(tgt, a), CM: cm})

	for _, tc := range []struct {
		name     string
		old, new *Store
	}{
		{"exact-then-sketch", exact, approx},
		{"sketch-then-exact", approx, exact},
	} {
		d := MeasureDrift(tc.old, tc.new)
		if d.Shared != 2 || d.OnlyOld != 0 || d.OnlyNew != 0 {
			t.Fatalf("%s: shared=%d onlyOld=%d onlyNew=%d, want 2/0/0", tc.name, d.Shared, d.OnlyOld, d.OnlyNew)
		}
		// The same data observed through both tiers: drift must be small
		// (sketch error only), far below the reoptimization threshold.
		if d.MaxRel > 0.2 {
			t.Fatalf("%s: cross-tier drift %.3f on identical data", tc.name, d.MaxRel)
		}
	}

	// A genuinely shifted sketch generation must still register drift.
	shifted := NewStore()
	hll2 := NewHLL(DefaultHLLP)
	for i := int64(0); i < 100; i++ {
		hll2.Add(i)
	}
	shifted.Put(&Value{Stat: hllDistinct(tgt, a), HLL: hll2})
	if d := MeasureDrift(exact, shifted); d.MaxRel < 0.5 {
		t.Fatalf("10x distinct shift reports drift %.3f", d.MaxRel)
	}
}

// TestPersistSketchRoundTrip: version-2 streams round-trip sketches
// bit-identically, and v1 streams still load.
func TestPersistSketchRoundTrip(t *testing.T) {
	st := sampleSketchStore()
	var buf bytes.Buffer
	if _, err := st.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadStore(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != st.Len() {
		t.Fatalf("lost values: %d vs %d", back.Len(), st.Len())
	}
	byKey := make(map[Key]*Value)
	for _, v := range back.Values() {
		byKey[v.Stat.Key()] = v
	}
	for _, v := range st.Values() {
		got, ok := byKey[v.Stat.Key()]
		if !ok {
			t.Fatalf("missing %v", v.Stat.Key())
		}
		switch {
		case v.HLL != nil:
			if got.HLL == nil || got.HLL.P != v.HLL.P || !bytes.Equal(got.HLL.Regs, v.HLL.Regs) {
				t.Fatalf("hll %v not bit-identical", v.Stat.Key())
			}
			if !got.Approx {
				t.Fatalf("hll %v lost its approx tag", v.Stat.Key())
			}
		case v.CM != nil:
			if got.CM == nil || got.CM.Spec != v.CM.Spec || got.CM.Depth != v.CM.Depth || got.CM.Width != v.CM.Width {
				t.Fatalf("cm %v layout differs", v.Stat.Key())
			}
			for i := range v.CM.Counters {
				if got.CM.Counters[i] != v.CM.Counters[i] {
					t.Fatalf("cm %v counter %d differs", v.Stat.Key(), i)
				}
			}
		}
	}
}

// TestPersistUnknownKindTyped: the forward-compatibility rejection carries
// the unknown kind byte and the stream version.
func TestPersistUnknownKindTyped(t *testing.T) {
	// v2 header, one statistic, kind byte 9, padded past the minimal value
	// length so the size pre-check does not fire first.
	in := append([]byte("ETLSTAT\x02\x00\x00\x00\x01\x00\x00\x00\x09"), make([]byte, 64)...)
	_, err := ReadStore(bytes.NewReader(in))
	var fe *formatError
	if !errors.As(err, &fe) || !errors.Is(err, errCorrupt) {
		t.Fatalf("want *FormatError wrapping ErrCorrupt, got %v", err)
	}
	if fe.BadKind != 9 || fe.Version != 2 {
		t.Fatalf("FormatError carries kind %d version %d, want 9/2", fe.BadKind, fe.Version)
	}
	// A sketch kind in a v1 stream is plain corruption, not a future kind.
	in = append([]byte("ETLSTAT\x01\x00\x00\x00\x01\x00\x00\x00\x03"), make([]byte, 64)...)
	_, err = ReadStore(bytes.NewReader(in))
	if !errors.As(err, &fe) {
		t.Fatalf("want *FormatError, got %v", err)
	}
	if fe.BadKind != -1 {
		t.Fatalf("v1 sketch-kind rejection claims unknown kind %d", fe.BadKind)
	}
}
