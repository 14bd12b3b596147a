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
	var cells []cell
	for _, panel := range grid64Panels {
		for _, th := range grid64Threads {
			cells = append(cells, intsetCell(
				fmt.Sprintf("grid64 %-10s r=%-6d LLB-256 t=%d", panel.Structure, panel.Range, th),
				o.intsetCfg(panel, "LLB-256", th, ops)))
		}
	}
	// The LLB-256 column repeats the 64-thread cells above; runCells runs
	// each of them once.
	for _, panel := range grid64Panels {
		for _, rt := range grid64Runtimes {
			cells = append(cells, intsetCell(
				fmt.Sprintf("grid64 %-10s r=%-6d %-13s t=64", panel.Structure, panel.Range, rt),
				o.intsetCfg(panel, rt, 64, ops)))
		}
	}
	reps, err := runCells(cells, o)

	var panels []string
	for _, panel := range grid64Panels {
		panels = append(panels, fmt.Sprintf("%s/%d", panel.Structure, panel.Range))
	}
	scal := &Table{
		Title:  "E15 — 64-core grid: Fig. 5 large panels on ASF-TM (LLB-256), throughput (tx/µs)",
		Header: []string{"cell", "8", "16", "32", "64"},
		Note:   "the 8-thread column matches the corresponding Fig. 5 cells; higher is better",
	}
	scal.grid(panels, len(grid64Threads), func(r, c int) any {
		return entry(find(reps, o.intsetCfg(grid64Panels[r], "LLB-256", grid64Threads[c], ops)), tput)
	})
	rtab := &Table{
		Title:  "E15 — 64-core grid: runtime field at 64 threads (E13 widened), throughput (tx/µs)",
		Header: append([]string{"cell"}, grid64Runtimes...),
	}
	rtab.grid(panels, len(grid64Runtimes), func(r, c int) any {
		return entry(find(reps, o.intsetCfg(grid64Panels[r], grid64Runtimes[c], 64, ops)), tput)
	})
	return []*Table{scal, rtab}, err
}
