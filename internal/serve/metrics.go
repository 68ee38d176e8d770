package serve

import (
	"fmt"
	"io"
	"sort"
	"sync"
)

// metrics aggregates the daemon's counters and per-workflow gauges. The
// rendering is the Prometheus text exposition format (counters and gauges
// only, no dependency needed) with sorted keys, so /metrics output is
// deterministic and greppable from the smoke test.
type metrics struct {
	mu sync.Mutex

	requests      map[string]int64 // per endpoint
	catalogHits   int64            // optimize/estimate found the workflow's statistics
	catalogMisses int64
	cacheHits     int64 // response served from the solution cache
	cacheMisses   int64
	solves        int64 // actual solver executions (post-singleflight)
	shared        int64 // requests that piggybacked on an in-flight solve
	invalidations int64 // cached solutions dropped by drift past threshold
	observes      int64
	sheds         int64 // requests shed by admission control (typed 429s)
	evictions     int64 // LRU entries dropped to stay within the byte budget

	generation map[string]int64   // per workflow: latest catalog generation
	driftMax   map[string]float64 // per workflow: last upload's max relative drift
	qerrMax    map[string]float64 // per workflow: max q-error of prev estimates vs new observations
	// payloadBytes is each workflow's last /v1/observe body size.
	payloadBytes map[string]int64
}

func newMetrics() *metrics {
	return &metrics{
		requests:     make(map[string]int64),
		generation:   make(map[string]int64),
		driftMax:     make(map[string]float64),
		qerrMax:      make(map[string]float64),
		payloadBytes: make(map[string]int64),
	}
}

func (m *metrics) request(endpoint string) {
	m.mu.Lock()
	m.requests[endpoint]++
	m.mu.Unlock()
}

func (m *metrics) catalog(hit bool) {
	m.mu.Lock()
	if hit {
		m.catalogHits++
	} else {
		m.catalogMisses++
	}
	m.mu.Unlock()
}

func (m *metrics) cache(hit bool) {
	m.mu.Lock()
	if hit {
		m.cacheHits++
	} else {
		m.cacheMisses++
	}
	m.mu.Unlock()
}

func (m *metrics) solve(sharedFlight bool) {
	m.mu.Lock()
	if sharedFlight {
		m.shared++
	} else {
		m.solves++
	}
	m.mu.Unlock()
}

func (m *metrics) invalidate(n int64) {
	m.mu.Lock()
	m.invalidations += n
	m.mu.Unlock()
}

func (m *metrics) shed() {
	m.mu.Lock()
	m.sheds++
	m.mu.Unlock()
}

func (m *metrics) evict(n int64) {
	m.mu.Lock()
	m.evictions += n
	m.mu.Unlock()
}

func (m *metrics) observe(workflow string, generation int, driftMax float64, payload int64) {
	m.mu.Lock()
	m.observes++
	m.generation[workflow] = int64(generation)
	m.driftMax[workflow] = driftMax
	m.payloadBytes[workflow] = payload
	m.mu.Unlock()
}

func (m *metrics) qerror(workflow string, q float64) {
	m.mu.Lock()
	m.qerrMax[workflow] = q
	m.mu.Unlock()
}

// render writes the exposition text. All map iterations sort their keys:
// byte-identical output for identical state.
func (m *metrics) render(w io.Writer) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, ep := range sortedKeys(m.requests) {
		fmt.Fprintf(w, "etlopt_serve_requests_total{endpoint=%q} %d\n", ep, m.requests[ep])
	}
	fmt.Fprintf(w, "etlopt_serve_catalog_hits_total %d\n", m.catalogHits)
	fmt.Fprintf(w, "etlopt_serve_catalog_misses_total %d\n", m.catalogMisses)
	fmt.Fprintf(w, "etlopt_serve_cache_hits_total %d\n", m.cacheHits)
	fmt.Fprintf(w, "etlopt_serve_cache_misses_total %d\n", m.cacheMisses)
	fmt.Fprintf(w, "etlopt_serve_solves_total %d\n", m.solves)
	fmt.Fprintf(w, "etlopt_serve_solves_shared_total %d\n", m.shared)
	fmt.Fprintf(w, "etlopt_serve_invalidations_total %d\n", m.invalidations)
	fmt.Fprintf(w, "etlopt_serve_observe_total %d\n", m.observes)
	fmt.Fprintf(w, "etlopt_serve_sheds_total %d\n", m.sheds)
	fmt.Fprintf(w, "etlopt_serve_evictions_total %d\n", m.evictions)
	for _, wf := range sortedKeys(m.generation) {
		fmt.Fprintf(w, "etlopt_serve_catalog_generation{workflow=%q} %d\n", wf, m.generation[wf])
	}
	for _, wf := range sortedKeys(m.driftMax) {
		fmt.Fprintf(w, "etlopt_serve_drift_max_rel{workflow=%q} %g\n", wf, m.driftMax[wf])
	}
	for _, wf := range sortedKeys(m.qerrMax) {
		fmt.Fprintf(w, "etlopt_serve_qerror_max{workflow=%q} %g\n", wf, m.qerrMax[wf])
	}
	for _, wf := range sortedKeys(m.payloadBytes) {
		fmt.Fprintf(w, "etlopt_serve_observe_payload_bytes{workflow=%q} %d\n", wf, m.payloadBytes[wf])
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
