package faults

import (
	"errors"
	"fmt"
	"testing"
)

func TestNilInjectorIsSilent(t *testing.T) {
	var f *Injector
	if err := f.At(SourceRead, "src:0:0", 0); err != nil {
		t.Fatalf("nil injector injected %v", err)
	}
	if (&Injector{}).At(Operator, "op:0:1", 0) != nil {
		t.Fatal("zero-value injector (rate 0) injected a fault")
	}
}

func TestRateOneFaultsEverySite(t *testing.T) {
	f := New(1, 1, 1, 0)
	for i := 0; i < 50; i++ {
		site := fmt.Sprintf("op:%d:%d", i%5, i)
		err := f.At(Operator, site, 0)
		if err == nil {
			t.Fatalf("rate=1 did not fault site %s", site)
		}
		var fe *injectedError
		if !errors.As(err, &fe) || fe.Site != site || fe.Kind != Operator || !fe.Transient {
			t.Fatalf("unexpected fault %v", err)
		}
		// Transient=1: the first retry clears.
		if err := f.At(Operator, site, 1); err != nil {
			t.Fatalf("attempt 1 should clear, got %v", err)
		}
	}
}

func TestPermanentFaultsNeverClear(t *testing.T) {
	f := New(7, 1, 0, Tap)
	for attempt := 0; attempt < 4; attempt++ {
		err := f.At(Tap, "tap:x", attempt)
		if err == nil {
			t.Fatalf("permanent fault cleared on attempt %d", attempt)
		}
		if IsTransient(err) {
			t.Fatalf("permanent fault reported transient: %v", err)
		}
	}
}

func TestKindMaskRestricts(t *testing.T) {
	f := New(1, 1, 1, SourceRead|Tap)
	if f.At(Operator, "op:0:0", 0) != nil {
		t.Fatal("masked-out kind faulted")
	}
	if f.At(SourceRead, "src:0:0", 0) == nil || f.At(Tap, "tap:y", 0) == nil {
		t.Fatal("masked-in kind did not fault")
	}
}

func TestDecisionIsDeterministicAndSeedSensitive(t *testing.T) {
	a := New(3, 0.5, 1, 0)
	b := New(3, 0.5, 1, 0)
	diff := false
	for i := 0; i < 200; i++ {
		site := fmt.Sprintf("site-%d", i)
		ea := a.At(Tap, site, 0)
		eb := b.At(Tap, site, 0)
		if (ea == nil) != (eb == nil) {
			t.Fatalf("same seed diverged at %s", site)
		}
		if (ea == nil) != (New(4, 0.5, 1, 0).At(Tap, site, 0) == nil) {
			diff = true
		}
	}
	if !diff {
		t.Fatal("seeds 3 and 4 made identical decisions on 200 sites")
	}
}

func TestRateIsRoughlyCalibrated(t *testing.T) {
	f := New(11, 0.3, 1, 0)
	hits := 0
	const n = 2000
	for i := 0; i < n; i++ {
		if f.At(Operator, fmt.Sprintf("s%d", i), 0) != nil {
			hits++
		}
	}
	got := float64(hits) / n
	if got < 0.25 || got > 0.35 {
		t.Fatalf("rate 0.3 hit %.3f of sites", got)
	}
}

func TestIsTransientUnwraps(t *testing.T) {
	err := fmt.Errorf("block 3: %w", &injectedError{Kind: SourceRead, Site: "src:3:0", Transient: true})
	if !IsTransient(err) {
		t.Fatal("wrapped transient fault not recognized")
	}
	if IsTransient(errors.New("organic")) {
		t.Fatal("organic error reported transient")
	}
}

func TestParse(t *testing.T) {
	f, err := Parse("seed=42,rate=0.25,transient=2,kinds=source|tap")
	if err != nil {
		t.Fatal(err)
	}
	if f.Seed != 42 || f.Rate != 0.25 || f.Transient != 2 || f.Kinds != SourceRead|Tap {
		t.Fatalf("parsed %+v", f)
	}
	if got := f.String(); got != "seed=42,rate=0.25,transient=2,kinds=source|tap" {
		t.Fatalf("String() = %q", got)
	}

	if f, err := Parse(""); err != nil || f != nil {
		t.Fatalf("empty spec: %v, %v", f, err)
	}
	// Defaults: a bare rate spec faults everything once, transiently.
	f, err = Parse("rate=1")
	if err != nil {
		t.Fatal(err)
	}
	if f.Seed != 1 || f.Transient != 1 || f.Kinds != 0 {
		t.Fatalf("defaults %+v", f)
	}
	for _, bad := range []string{"rate=2", "rate=x", "seed=-1", "transient=-1", "kinds=disk", "kinds=net", "novalue"} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) should fail", bad)
		}
	}
}
