// Package etlopt is a Go reproduction of "Determining Essential Statistics
// for Cost Based Optimization of an ETL Workflow" (Halasipuram, Deshpande,
// Padmanabhan — EDBT 2014).
//
// ETL workflows are designed once and executed repeatedly, but the ETL
// engine has no statistics about its sources, so cost-based optimization is
// normally impossible. The library analyzes a workflow, determines a
// minimum-cost set of statistics whose observation during a single run of
// the designed plan suffices to cost every reordering exactly, instruments
// and executes the plan, and then lets a conventional join-order optimizer
// pick the best plan for future runs.
//
// The implementation lives under internal/:
//
//	workflow   ETL DAG model, optimizable-block analysis (§3.2.1)
//	expr       sub-expression and plan-space enumeration (§3.2.2)
//	stats      statistic descriptors and exact-histogram algebra (§3.1, §4.1)
//	css        candidate-statistics-set generation, Algorithm 1 (§4)
//	costmodel  observation cost metrics (§5.4), FD and source-stats enhancements (§6)
//	selector   statistics selection: the §5.2 optimum by exact B&B, greedy (§5)
//	engine     instrumented batch execution engine (§3.2.5–3.2.6)
//	estimate   numeric rule evaluation — exact derived cardinalities (§4.1)
//	optimizer  cost-based join-order optimization (§3.2.7)
//	payg       trivial-CSS / pay-as-you-go baseline (§7.3)
//	data       deterministic Zipfian data generation (§7)
//	suite      the 30-workflow evaluation suite (§7)
//	core       the full optimization loop of Figure 2
//
// See README.md for a tour, DESIGN.md for the system inventory, and
// EXPERIMENTS.md for the reproduction of every table and figure.
package etlopt
