package core

import (
	"encoding/json"
	"fmt"
	"io"
	"text/tabwriter"
)

// WriteMetrics renders the cycle's per-operator metrics and the estimate
// feedback in the given format ("table" or "json"). The output is
// deterministic: it carries only row counts and q-errors and is
// bit-identical across worker counts, block placements and repeated runs. Timing lives in WriteMetricsTimings, which is
// wall-clock and belongs on stderr.
func (cy *Cycle) WriteMetrics(w io.Writer, format string) error {
	if cy.Metrics == nil {
		return fmt.Errorf("core: no metrics collected (set Config.CollectMetrics)")
	}
	switch format {
	case "json":
		payload := struct {
			Nodes    interface{} `json:"nodes"`
			Feedback interface{} `json:"feedback,omitempty"`
		}{Nodes: cy.Metrics.Nodes, Feedback: cy.Feedback}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(payload)
	case "table", "":
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "BLOCK\tNODE\tOP\tLABEL\tROWS IN\tROWS OUT")
		for _, n := range cy.Metrics.Nodes {
			fmt.Fprintf(tw, "%d\t%d\t%s\t%s\t%d\t%d\n",
				n.Block, n.Node, n.Op, n.Label, n.RowsIn, n.RowsOut)
		}
		if err := tw.Flush(); err != nil {
			return err
		}
		if cy.Feedback != nil {
			fmt.Fprintln(w)
			if _, err := io.WriteString(w, cy.Feedback.Render()); err != nil {
				return err
			}
		}
		return nil
	default:
		return fmt.Errorf("core: unknown metrics format %q (want table or json)", format)
	}
}

// WriteMetricsTimings summarizes the run's wall-clock split between
// operator work and statistic-tap observation. Wall times vary run to run,
// so this is kept out of the deterministic WriteMetrics output.
func (cy *Cycle) WriteMetricsTimings(w io.Writer) {
	if cy.Metrics == nil {
		return
	}
	wall, tap := cy.Metrics.Totals()
	pct := 0.0
	if wall+tap > 0 {
		pct = 100 * float64(tap) / float64(wall+tap)
	}
	fmt.Fprintf(w, "operator wall time %.3fms, tap overhead %.3fms (%.1f%% of execution)\n",
		float64(wall)/1e6, float64(tap)/1e6, pct)
}
