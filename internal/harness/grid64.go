package harness

import (
	"fmt"

	"asfstack/internal/intset"
)

// grid64Threads widens the paper's 1–8 thread axis to the simulator's full
// 64-core machine (E15). The 8-thread column overlaps Fig. 5/E13 so the
// widened grid anchors against the paper-scale numbers.
var grid64Threads = []int{8, 16, 32, 64}

// grid64Panels are the large-range Fig. 5 panels — the ones with enough
// keys to keep 64 threads busy rather than purely colliding.
var grid64Panels = []intset.Config{
	{Structure: "linkedlist", Range: 512, UpdatePct: 20},
	{Structure: "skiplist", Range: 8192, UpdatePct: 20},
	{Structure: "rbtree", Range: 8192, UpdatePct: 20},
	{Structure: "hashset", Range: 128000, UpdatePct: 100},
}

// grid64Runtimes is the E13 runtime field re-run at 64 threads: the four
// static families the adaptive selector switches among, plus the selector.
var grid64Runtimes = []string{"LLB-256", "HyTM-8", "STM", "Cohorts-turbo", "Adaptive-8"}

// Grid64 — E15: the widened 64-core grid. Two parts: the large Fig. 5
// panels on ASF-TM across 8–64 threads, and the E13 runtime field
// head-to-head at 64 threads.
func Grid64(o Options) ([]*Table, error) {
	ops := int(1500 * o.scale())
	nP, nT := len(grid64Panels), len(grid64Threads)
	thr := make([]slot[float64], nP*nT)
	var cells []cell
	for pi, panel := range grid64Panels {
		for ti, th := range grid64Threads {
			cfg := panel
			cfg.Options = o.spec("LLB-256", th)
			cfg.OpsPerThread = ops
			cells = append(cells, intsetCell(
				fmt.Sprintf("grid64 %-10s r=%-6d LLB-256 t=%d", panel.Structure, panel.Range, th),
				cfg, throughput(&thr[pi*nT+ti])))
		}
	}

	nR := len(grid64Runtimes)
	rtThr := make([]slot[float64], nP*nR)
	for pi, panel := range grid64Panels {
		for ri, rt := range grid64Runtimes {
			cfg := panel
			cfg.Options = o.spec(rt, 64)
			cfg.OpsPerThread = ops
			cells = append(cells, intsetCell(
				fmt.Sprintf("grid64 %-10s r=%-6d %-13s t=64", panel.Structure, panel.Range, rt),
				cfg, throughput(&rtThr[pi*nR+ri])))
		}
	}

	err := runCells(cells, o)

	scal := &Table{
		Title:  "E15 — 64-core grid: Fig. 5 large panels on ASF-TM (LLB-256), throughput (tx/µs)",
		Header: []string{"cell", "8", "16", "32", "64"},
		Note:   "the 8-thread column matches the corresponding Fig. 5 cells; higher is better",
	}
	for pi, panel := range grid64Panels {
		row := []any{fmt.Sprintf("%s/%d", panel.Structure, panel.Range)}
		for ti := range grid64Threads {
			row = append(row, thr[pi*nT+ti].cell())
		}
		scal.Add(row...)
	}

	rtab := &Table{
		Title:  "E15 — 64-core grid: runtime field at 64 threads (E13 widened), throughput (tx/µs)",
		Header: append([]string{"cell"}, grid64Runtimes...),
	}
	for pi, panel := range grid64Panels {
		row := []any{fmt.Sprintf("%s/%d", panel.Structure, panel.Range)}
		for ri := range grid64Runtimes {
			row = append(row, rtThr[pi*nR+ri].cell())
		}
		rtab.Add(row...)
	}
	return []*Table{scal, rtab}, err
}
