// Package faults provides a deterministic, seed-driven fault injector for
// the execution engines. Production ETL runs fail in a handful of
// characteristic ways — a source extract cannot be read, an operator's
// runtime dependency breaks, a statistic tap's side memory is exhausted,
// the run's row budget trips — and the engine's recovery machinery (block
// retry, in-process fallback, degraded observation) needs all of them to be
// reproducible on demand. The injector decides every fault as a pure
// function of (seed, kind, site, attempt), so a faulted run is exactly
// repeatable across worker counts and processes: the same sites
// fail on the same attempts, and a retried transient fault always clears.
//
// A nil *Injector is valid and injects nothing; the engine's hot paths pay
// a single nil check, mirroring how metrics collection stays free when off.
package faults

import (
	"errors"
	"fmt"
	"hash/fnv"
	"strconv"
	"strings"
)

// Kind classifies an injection point. Kinds form a bitmask so an injector
// can restrict itself to a subset of fault classes.
type Kind uint8

// The injectable fault classes.
const (
	// SourceRead faults a block input's scan (base relation or upstream
	// boundary output).
	SourceRead Kind = 1 << iota
	// Operator faults a physical operator (filter, transform, join, ...).
	Operator
	// Tap faults a statistic observation point. Transient tap faults abort
	// the block attempt (the retry re-observes); permanent ones mark the
	// statistic unavailable and degrade the run.
	Tap
	// Budget faults the run's row-budget accounting, simulating exhaustion
	// of the intermediate-result allowance.
	Budget

	// allKinds enables every fault class.
	allKinds = SourceRead | Operator | Tap | Budget
)

// String names a single kind (bitmask combinations render as "multiple").
func (k Kind) String() string {
	switch k {
	case SourceRead:
		return "source-read"
	case Operator:
		return "operator"
	case Tap:
		return "tap"
	case Budget:
		return "budget"
	default:
		return "multiple"
	}
}

// injectedError is one injected fault. It is typed so IsTransient can
// tell injected faults (and their transience) from organic errors.
type injectedError struct {
	// Kind is the faulted class.
	Kind Kind
	// Site identifies the injection point (stable across engines).
	Site string
	// Transient reports whether a retry of the same site will clear.
	Transient bool
}

func (e *injectedError) Error() string {
	mode := "permanent"
	if e.Transient {
		mode = "transient"
	}
	return fmt.Sprintf("injected %s %s fault at %s", mode, e.Kind, e.Site)
}

// IsTransient reports whether err is (or wraps) a transient injected
// fault — the class the engine retries with backoff.
func IsTransient(err error) bool {
	var fe *injectedError
	return errors.As(err, &fe) && fe.Transient
}

// Injector decides deterministically which sites fault. The zero value
// injects nothing (Rate 0); a nil *Injector likewise injects nothing.
type Injector struct {
	// Seed drives the per-site fault decision.
	Seed uint64
	// Rate is the per-site fault probability in [0, 1]. Each site's
	// decision is a fixed function of (Seed, kind, site): Rate=1 faults
	// every matching site, 0 faults none.
	Rate float64
	// Transient is the number of leading attempts that fail at a faulted
	// site before it clears; 0 makes faults permanent (every attempt
	// fails).
	Transient int
	// Kinds restricts injection to the masked fault classes; 0 means all.
	Kinds Kind
}

// New returns an injector with the given parameters (kinds 0 = all).
func New(seed uint64, rate float64, transient int, kinds Kind) *Injector {
	return &Injector{Seed: seed, Rate: rate, Transient: transient, Kinds: kinds}
}

// At consults the injector for one site on one attempt, returning the
// injected fault or nil. The decision depends only on (Seed, kind, site,
// attempt), never on call order, so parallel and sequential executions
// fault identically.
func (f *Injector) At(kind Kind, site string, attempt int) error {
	if f == nil || f.Rate <= 0 {
		return nil
	}
	if f.Kinds != 0 && f.Kinds&kind == 0 {
		return nil
	}
	if !f.hits(kind, site) {
		return nil
	}
	transient := f.Transient > 0
	if transient && attempt >= f.Transient {
		return nil
	}
	return &injectedError{Kind: kind, Site: site, Transient: transient}
}

// hits evaluates the per-site Bernoulli draw: an FNV-1a hash of
// (seed, kind, site), normalized to [0, 1), compared against Rate.
func (f *Injector) hits(kind Kind, site string) bool {
	h := fnv.New64a()
	var buf [9]byte
	for i := 0; i < 8; i++ {
		buf[i] = byte(f.Seed >> (8 * i))
	}
	buf[8] = byte(kind)
	h.Write(buf[:])
	h.Write([]byte(site))
	// FNV-1a mixes its low bits well but not its high ones on short
	// inputs; a splitmix64-style finalizer spreads the entropy before the
	// top 53 bits become a uniform float64 in [0, 1).
	x := h.Sum64()
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	u := float64(x>>11) / float64(1<<53)
	return u < f.Rate
}

// Parse builds an injector from a CLI spec of comma-separated fields:
//
//	seed=<uint>,rate=<float>,transient=<int>,kinds=<k|k|...>
//
// where each kind is one of source, op, tap, budget (default: all).
// Omitted fields default to seed=1, rate=1, transient=1, kinds=all — a
// spec of "rate=1" alone forces one transient fault per site and lets
// every retry succeed. An empty spec returns a nil injector.
func Parse(spec string) (*Injector, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, nil
	}
	f := &Injector{Seed: 1, Rate: 1, Transient: 1}
	for _, field := range strings.Split(spec, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		key, val, ok := strings.Cut(field, "=")
		if !ok {
			return nil, fmt.Errorf("faults: field %q is not key=value", field)
		}
		switch key {
		case "seed":
			v, err := strconv.ParseUint(val, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("faults: seed %q: %w", val, err)
			}
			f.Seed = v
		case "rate":
			v, err := strconv.ParseFloat(val, 64)
			if err != nil || v < 0 || v > 1 {
				return nil, fmt.Errorf("faults: rate %q must be a float in [0,1]", val)
			}
			f.Rate = v
		case "transient":
			v, err := strconv.Atoi(val)
			if err != nil || v < 0 {
				return nil, fmt.Errorf("faults: transient %q must be a non-negative integer", val)
			}
			f.Transient = v
		case "kinds":
			var mask Kind
			for _, name := range strings.Split(val, "|") {
				switch strings.TrimSpace(name) {
				case "source":
					mask |= SourceRead
				case "op":
					mask |= Operator
				case "tap":
					mask |= Tap
				case "budget":
					mask |= Budget
				case "all":
					mask |= allKinds
				default:
					return nil, fmt.Errorf("faults: unknown kind %q (want source|op|tap|budget|all)", name)
				}
			}
			f.Kinds = mask
		default:
			return nil, fmt.Errorf("faults: unknown field %q (want seed, rate, transient, kinds)", key)
		}
	}
	return f, nil
}

// String renders the injector back into its Parse spec.
func (f *Injector) String() string {
	if f == nil {
		return ""
	}
	spec := fmt.Sprintf("seed=%d,rate=%g,transient=%d", f.Seed, f.Rate, f.Transient)
	if f.Kinds != 0 && f.Kinds != allKinds {
		var names []string
		for _, k := range []struct {
			kind Kind
			name string
		}{{SourceRead, "source"}, {Operator, "op"}, {Tap, "tap"}, {Budget, "budget"}} {
			if f.Kinds&k.kind != 0 {
				names = append(names, k.name)
			}
		}
		spec += ",kinds=" + strings.Join(names, "|")
	}
	return spec
}
