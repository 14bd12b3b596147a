package harness

import (
	"fmt"

	"asfstack/internal/intset"
	"asfstack/internal/txprof"
)

// txprofRuntimes are the E14 columns: one representative of every runtime
// family behind the tm ABI.
var txprofRuntimes = []string{"LLB-256", "HyTM-8", "STM", "Cohorts-turbo", "Adaptive-8"}

// Txprof — E14: wasted-work accounting from the transaction-level flight
// recorder. Every Fig. 5 cell runs at 8 threads with the recorder enabled,
// once per runtime family; the table reports the profile's begin/commit/
// abort/fallback totals, the useful-vs-wasted cycle split, the most
// abort-implicated cache line, and the heaviest aborter→victim causality
// edge. The full profiles land in the cells' JSON reports for cmd/tmprof.
func Txprof(o Options) ([]*Table, error) {
	ops := int(1500 * o.scale())
	nR := len(txprofRuntimes)
	sums := make([]slot[txprof.Summary], len(fig5Panels)*nR)
	var cells []cell
	for pi, panel := range fig5Panels {
		for ri, rt := range txprofRuntimes {
			dst := &sums[pi*nR+ri]
			cfg := panel
			cfg.Options = o.spec(rt, 8)
			cfg.Profile = true
			cfg.OpsPerThread = ops
			cells = append(cells, intsetCell(
				fmt.Sprintf("txprof %-10s r=%-6d %-14s t=8", panel.Structure, panel.Range, rt), cfg,
				func(r intset.Result) (string, error) {
					if r.Profile == nil {
						return "", fmt.Errorf("runtime %q produced no profile", rt)
					}
					dst.set(r.Profile.Summary)
					return fmt.Sprintf("wasted=%.1f%%", 100*r.Profile.Summary.WastedRatio), nil
				}))
		}
	}
	err := runCells(cells, o)

	t := &Table{
		Title: "E14 — wasted work (txprof flight recorder; Fig. 5 cells, 8 threads)",
		Header: []string{"cell", "runtime", "begins", "commits", "aborts", "fallbacks",
			"useful-cyc", "wasted-cyc", "wasted%", "top-line", "top-edge"},
		Note: "wasted% = attempt cycles thrown away on aborts / (useful + wasted); " +
			"top-line = most abort-implicated cache line over the surviving flight window; " +
			"top-edge = heaviest aborter→victim causality edge (full run, hardware conflict aborts)",
	}
	for pi, panel := range fig5Panels {
		cellName := fmt.Sprintf("%s/%d", panel.Structure, panel.Range)
		for ri, rt := range txprofRuntimes {
			s := sums[pi*nR+ri]
			if !s.ok {
				t.Add(cellName, rt, "ERR", "ERR", "ERR", "ERR", "ERR", "ERR", "ERR", "ERR", "ERR")
				continue
			}
			sum := s.val
			topLine, topEdge := "-", "-"
			if len(sum.TopLines) > 0 {
				topLine = fmt.Sprintf("%s x%d", sum.TopLines[0].Addr, sum.TopLines[0].Count)
			}
			if len(sum.Edges) > 0 {
				best := sum.Edges[0]
				for _, e := range sum.Edges[1:] {
					if e.Count > best.Count {
						best = e
					}
				}
				topEdge = fmt.Sprintf("%d->%d x%d", best.From, best.To, best.Count)
			}
			t.Add(cellName, rt, sum.Begins, sum.Commits, sum.Aborts, sum.Fallbacks,
				sum.UsefulCycles, sum.WastedCycles,
				fmt.Sprintf("%.1f", 100*sum.WastedRatio), topLine, topEdge)
		}
	}
	return []*Table{t}, err
}
