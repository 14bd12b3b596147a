package harness

import (
	"fmt"

	"asfstack/internal/intset"
	"asfstack/internal/stamp"
	"asfstack/internal/tm"
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

	stampMS := make([]slot[float64], len(hybridApps)*nR*nT)
	stampMix := make([]slot[hybridMix], len(hybridApps)*nR*nT)
	var cells []cell
	for ai, app := range hybridApps {
		for ri, rt := range hybridRuntimes {
			for ti, th := range threadCounts {
				dst := &stampMS[(ai*nR+ri)*nT+ti]
				mix := &stampMix[(ai*nR+ri)*nT+ti]
				cfg := stamp.Config{Options: o.spec(rt, th), App: app, Scale: scale}
				cells = append(cells, stampCell(fmt.Sprintf("hybrid %-14s %-8s t=%d", app, rt, th), cfg,
					func(r stamp.Result) (string, error) {
						dst.set(r.Millis())
						mix.set(newHybridMix(r.Stats))
						return fmt.Sprintf("%.3fms", r.Millis()), nil
					}))
			}
		}
	}

	nI := 0
	for _, se := range hybridIntset {
		nI += len(se.sizes)
	}
	intThr := make([]slot[float64], nI*nR)
	intMix := make([]slot[hybridMix], nI*nR)
	base := 0
	for _, se := range hybridIntset {
		for zi, sz := range se.sizes {
			for ri, rt := range hybridRuntimes {
				dst := &intThr[(base+zi)*nR+ri]
				mix := &intMix[(base+zi)*nR+ri]
				cfg := intset.Config{
					Options:   o.spec(rt, 8),
					Structure: se.structure, Range: uint64(2 * sz), UpdatePct: 20, InitialSize: sz,
					OpsPerThread: ops,
				}
				cells = append(cells, intsetCell(fmt.Sprintf("hybrid %-10s size=%-4d %-8s t=8", se.structure, sz, rt), cfg,
					func(r intset.Result) (string, error) {
						dst.set(r.Throughput())
						mix.set(newHybridMix(r.Stats))
						return fmt.Sprintf("%.2f tx/us", r.Throughput()), nil
					}))
			}
		}
		base += len(se.sizes)
	}
	err := runCells(cells, o)

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
				row = append(row, stampMS[(ai*nR+ri)*nT+ti].cell())
			}
			t.Add(row...)
		}
		tables = append(tables, t)
	}

	base = 0
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
				row = append(row, intThr[(base+zi)*nR+ri].cell())
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
		s := stampMS[(ai*nR+0)*nT+t8]
		h := stampMS[(ai*nR+1)*nT+t8]
		m := stampMix[(ai*nR+1)*nT+t8]
		if s.ok && h.ok && m.ok && h.val > 0 {
			imp := (s.val - h.val) / s.val * 100
			sum.Add(app, "ms", s.val, h.val, imp, m.val.hw, m.val.sw, m.val.serial, m.val.seq)
		} else {
			sum.Add(app, "ms", s.cell(), h.cell(), "ERR", "ERR", "ERR", "ERR", "ERR")
		}
	}
	base = 0
	for _, se := range hybridIntset {
		for zi, sz := range se.sizes {
			s := intThr[(base+zi)*nR+0]
			h := intThr[(base+zi)*nR+1]
			m := intMix[(base+zi)*nR+1]
			label := fmt.Sprintf("%s/%d", se.structure, sz)
			if s.ok && h.ok && m.ok && s.val > 0 {
				imp := (h.val - s.val) / s.val * 100
				sum.Add(label, "tx/µs", s.val, h.val, imp, m.val.hw, m.val.sw, m.val.serial, m.val.seq)
			} else {
				sum.Add(label, "tx/µs", s.cell(), h.cell(), "ERR", "ERR", "ERR", "ERR", "ERR")
			}
		}
		base += len(se.sizes)
	}
	tables = append(tables, sum)
	return tables, err
}

// hybridMix is the hybrid runtime's commit-path split for one cell.
type hybridMix struct {
	hw, sw, serial, seq uint64
}

func newHybridMix(st tm.Stats) hybridMix {
	return hybridMix{hw: st.Commits - st.SWCommits - st.Serial, sw: st.SWCommits, serial: st.Serial, seq: st.SeqAborts}
}
