package suite

import (
	"testing"

	"github.com/essential-stats/etlopt/internal/css"
	"github.com/essential-stats/etlopt/internal/faults"
	"github.com/essential-stats/etlopt/internal/workflow"
)

// TestEngineEquivalenceUnderFaults is the fault-matrix contract: with an
// injector forcing one transient fault at every site (rate=1, transient=1 —
// every block's first attempt fails and every retry succeeds), every engine
// configuration — sequential and worker-parallel — must still produce
// results identical to the fault-free reference evaluation over every suite
// workflow. Retries are invisible: per-attempt
// sinks and row budgets isolate failed attempts, so nothing a failed
// attempt did leaks into the committed result.
func TestEngineEquivalenceUnderFaults(t *testing.T) {
	const scale = 0.001
	inj := faults.New(1, 1, 1, 0) // seed 1, every site, one transient failure, all kinds
	for _, w := range All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			an, err := workflow.Analyze(w.Graph, w.Catalog)
			if err != nil {
				t.Fatalf("Analyze: %v", err)
			}
			res, err := css.Generate(an, css.DefaultOptions())
			if err != nil {
				t.Fatalf("Generate: %v", err)
			}
			observe := observableStats(res)
			db := w.Data(scale)

			clean := referenceRun(t, an, db, res, observe)

			for _, cfg := range engineConfigs {
				if raceDetector && cfg.workers == 1 {
					// See TestEngineEquivalenceGolden: sequential legs
					// cannot race and are covered by the unraced CI jobs.
					continue
				}
				got, err := runConfig(cfg, an, db, res, observe, false, inj)
				if err != nil {
					t.Fatalf("%s under faults: %v", cfg.name, err)
				}
				if got.Retries == 0 {
					t.Errorf("%s: rate-1 injector caused no retries", cfg.name)
				}
				if len(got.Degraded) != 0 {
					t.Errorf("%s: transient faults degraded %d statistics", cfg.name, len(got.Degraded))
				}
				diffRun(t, cfg.name, clean, got, false)
			}
		})
	}
}
