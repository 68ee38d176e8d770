package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// A span is one timed call into a layer, recorded from bench/ around the
// call (spans inside the program are a later change). Parent links a
// handler span to the client request that caused it; Op is the shared
// identifier "round/workflow/op".
type span struct {
	Name   string
	Op     string
	Round  int
	Parent int // index into tracer.spans, -1 for an op root
	Lane   int // chrome tid: 1 bench client, 2 daemon, 3 workers
	Start  time.Duration
	End    time.Duration
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how the untraced run stays span-free.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (-1 on a nil tracer).
func (t *tracer) begin(name, op string, round, parent, lane int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Op: op, Round: round, Parent: parent, Lane: lane, Start: now, End: -1})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// meta returns a span's op and round, so server-side middleware can stamp
// its span with the identifiers of the client request that caused it.
func (t *tracer) meta(id int) (op string, round int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if id < 0 || id >= len(t.spans) {
		return "", 0
	}
	return t.spans[id].Op, t.spans[id].Round
}

// selfTimes returns, per span, its duration minus the part its direct
// children cover. Children of one parent never overlap here except in the
// 2-client and 2-worker phases, where the clamp keeps self time at zero
// instead of going negative.
func selfTimes(spans []span) []time.Duration {
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		if s.End >= s.Start {
			self[i] = s.End - s.Start
		}
	}
	for _, s := range spans {
		if s.Parent >= 0 && s.End >= s.Start {
			self[s.Parent] -= s.End - s.Start
		}
	}
	for i := range self {
		if self[i] < 0 {
			self[i] = 0
		}
	}
	return self
}

// layerKey addresses the samples of one span name under one op.
type layerKey struct{ op, name string }

// layerSamples reduces spans to per-round self-time sums (seconds): one
// sample per timed round for every (op, span name) pair, in round order.
// Warm-up rounds (negative) are dropped.
func layerSamples(spans []span) map[layerKey][]float64 {
	self := selfTimes(spans)
	type cell struct {
		rounds map[int]float64
		max    int
	}
	cells := map[layerKey]*cell{}
	for i, s := range spans {
		if s.Round < 0 || s.End < s.Start {
			continue
		}
		k := layerKey{s.Op, s.Name}
		c := cells[k]
		if c == nil {
			c = &cell{rounds: map[int]float64{}}
			cells[k] = c
		}
		c.rounds[s.Round] += self[i].Seconds()
		if s.Round > c.max {
			c.max = s.Round
		}
	}
	out := make(map[layerKey][]float64, len(cells))
	for k, c := range cells {
		for r := 0; r <= c.max; r++ {
			if v, ok := c.rounds[r]; ok {
				out[k] = append(out[k], v)
			}
		}
	}
	return out
}

// chromeEvent is one complete ("X") event of the Chrome trace-event format;
// open the file in chrome://tracing or https://ui.perfetto.dev.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

func (t *tracer) writeChrome(path string) error {
	t.mu.Lock()
	events := make([]chromeEvent, 0, len(t.spans))
	for i, s := range t.spans {
		if s.End < s.Start {
			continue
		}
		events = append(events, chromeEvent{
			Name: s.Name, Cat: "bench", Ph: "X", Pid: 1, Tid: s.Lane,
			Ts:   float64(s.Start.Nanoseconds()) / 1e3,
			Dur:  float64((s.End - s.Start).Nanoseconds()) / 1e3,
			Args: map[string]any{"id": i, "parent": s.Parent, "op": s.Op, "round": s.Round},
		})
	}
	t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
