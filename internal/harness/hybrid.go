package harness

import (
	"fmt"

	"asfstack/internal/intset"
	"asfstack/internal/stamp"
)

// hybridApps are the capacity-bound STAMP applications E11 re-runs: the
// cells the paper's serial-irrevocable fallback could not scale (Fig. 4
// discussion — labyrinth stays flat at every thread count, vacation
// convoys on LLB-8).
var hybridApps = []string{"labyrinth", "vacation-high"}

// hybridIntset are the Fig. 7 tail cells where the LLB-8 read set
// overflows on nearly every operation (long list and red-black tree).
var hybridIntset = []struct {
	structure string
	sizes     []int
}{
	{"linkedlist", []int{126, 254, 510}},
	{"rbtree", []int{1024, 2048, 4096}},
}

// hybridRuntimes compares the paper's serial-fallback ASF-TM against the
// hybrid runtime on the same LLB-8 hardware.
var hybridRuntimes = []string{"LLB-8", "HyTM-8"}

// Hybrid — E11: serial fallback vs concurrent software fallback on the
// capacity-bound cells. Reports STAMP execution times across threads,
// IntegerSet throughput at 8 threads across sizes, and a head-to-head
// 8-thread summary with the hybrid's commit-path split.
func Hybrid(o Options) ([]*Table, error) {
	scale := o.scale()
	ops := int(1200 * o.scale())
	nR, nT := len(hybridRuntimes), len(threadCounts)
	var cells []cell
	for _, app := range hybridApps {
		for _, rt := range hybridRuntimes {
			for _, th := range threadCounts {
				cfg := stamp.Config{Options: o.spec(rt, th), App: app, Scale: scale}
				cells = append(cells, stampCell(fmt.Sprintf("hybrid %-14s %-8s t=%d", app, rt, th), cfg))
			}
		}
	}
	for _, se := range hybridIntset {
		for _, sz := range se.sizes {
			for _, rt := range hybridRuntimes {
				cfg := intset.Config{
					Options:   o.spec(rt, 8),
					Structure: se.structure, Range: uint64(2 * sz), UpdatePct: 20,
					OpsPerThread: ops,
				}
				cells = append(cells, intsetCell(fmt.Sprintf("hybrid %-10s size=%-4d %-8s t=8", se.structure, sz, rt), cfg))
			}
		}
	}
	reps, err := runCells(cells, o)
	stampR, intR := reps[:len(hybridApps)*nR*nT], reps[len(hybridApps)*nR*nT:]

	var tables []*Table
	for ai, app := range hybridApps {
		t := &Table{
			Title:  fmt.Sprintf("E11 — hybrid fallback: %s (execution time, ms; lower is better)", app),
			Header: []string{"runtime", "1", "2", "4", "8"},
			Note:   "LLB-8 = serial-irrevocable fallback (the paper's design); HyTM-8 = concurrent software fallback",
		}
		for ri, rt := range hybridRuntimes {
			row := []any{rt}
			for ti := range threadCounts {
				row = append(row, entry(stampR[(ai*nR+ri)*nT+ti], ms))
			}
			t.Add(row...)
		}
		tables = append(tables, t)
	}

	base := 0
	for _, se := range hybridIntset {
		header := []string{"runtime"}
		for _, sz := range se.sizes {
			header = append(header, fmt.Sprint(sz))
		}
		t := &Table{
			Title: fmt.Sprintf("E11 — hybrid fallback: Intset:%s (8 threads, 20%% update): throughput (tx/µs) vs initial size",
				se.structure),
			Header: header,
		}
		for ri, rt := range hybridRuntimes {
			row := []any{rt}
			for zi := range se.sizes {
				row = append(row, entry(intR[(base+zi)*nR+ri], tput))
			}
			t.Add(row...)
		}
		tables = append(tables, t)
		base += len(se.sizes)
	}

	// Head-to-head at 8 threads: the acceptance evidence. Serial and
	// hybrid numbers side by side, the improvement, and where the hybrid's
	// commits actually ran (hw / concurrent sw / serial).
	sum := &Table{
		Title:  "E11 — 8-thread head-to-head: serial fallback vs hybrid",
		Header: []string{"cell", "metric", "LLB-8", "HyTM-8", "improvement (%)", "hw commits", "sw commits", "serial", "seq aborts"},
		Note:   "improvement: time reduction for STAMP (ms), throughput gain for Intset; commit split is the HyTM-8 run's",
	}
	t8 := len(threadCounts) - 1
	for ai, app := range hybridApps {
		s, h := stampR[(ai*nR+0)*nT+t8], stampR[(ai*nR+1)*nT+t8]
		if s.Sim == nil || h.Sim == nil || ms(h.Sim) <= 0 {
			sum.Add(app, "ms", entry(s, ms), entry(h, ms), "ERR", "ERR", "ERR", "ERR", "ERR")
			continue
		}
		sv, hv, st := ms(s.Sim), ms(h.Sim), h.Sim.Stats
		sum.Add(app, "ms", sv, hv, (sv-hv)/sv*100, st.Commits-st.SWCommits-st.Serial, st.SWCommits, st.Serial, st.SeqAborts)
	}
	base = 0
	for _, se := range hybridIntset {
		for zi, sz := range se.sizes {
			s, h := intR[(base+zi)*nR+0], intR[(base+zi)*nR+1]
			label := fmt.Sprintf("%s/%d", se.structure, sz)
			if s.Sim == nil || h.Sim == nil || tput(s.Sim) <= 0 {
				sum.Add(label, "tx/µs", entry(s, tput), entry(h, tput), "ERR", "ERR", "ERR", "ERR", "ERR")
				continue
			}
			sv, hv, st := tput(s.Sim), tput(h.Sim), h.Sim.Stats
			sum.Add(label, "tx/µs", sv, hv, (hv-sv)/sv*100, st.Commits-st.SWCommits-st.Serial, st.SWCommits, st.Serial, st.SeqAborts)
		}
		base += len(se.sizes)
	}
	tables = append(tables, sum)
	return tables, err
}
