package harness

import (
	"fmt"

	"asfstack"
	"asfstack/internal/asf"
	"asfstack/internal/intset"
	"asfstack/internal/server"
	"asfstack/internal/sim"
	"asfstack/internal/stamp"
)

// The workload entry points, indirected so the scheduler's error handling
// can be tested with injected failures.
var (
	stampRun  = stamp.Run
	intsetRun = intset.Run
	serverRun = server.Run
)

// spec is one cell's machine spec: the runtime and core count the
// experiment picks, plus the run-wide trace and profile switches.
func (o Options) spec(runtime string, cores int) asfstack.Options {
	return asfstack.Options{Runtime: runtime, Cores: cores, Trace: o.Trace, Profile: o.Profile}
}

// stampCell, intsetCell and serverCell make one workload run a cell: the
// run's measured phase is recorded on the cell's report, which is where
// the experiment's tables read it.
func stampCell(label string, cfg stamp.Config) cell {
	return cell{label: label, run: func(rec *CellRecord) (string, error) {
		r, err := stampRun(cfg)
		if err != nil {
			return "", err
		}
		rec.ObserveRun(r)
		return fmt.Sprintf("%.3fms", r.Millis()), nil
	}}
}

func intsetCell(label string, cfg intset.Config) cell {
	return cell{label: label, run: func(rec *CellRecord) (string, error) {
		r, err := intsetRun(cfg)
		if err != nil {
			return "", err
		}
		// A profiled cell without a profile fails here rather than in E14's
		// table assembly, which reads the profile outside the cell's recover.
		if cfg.Profile && r.Profile == nil {
			return "", fmt.Errorf("runtime %q produced no profile", cfg.Runtime)
		}
		rec.ObserveRun(r)
		return fmt.Sprintf("%.2f tx/us", r.Throughput()), nil
	}}
}

func serverCell(label string, cfg server.Config) cell {
	return cell{label: label, run: func(rec *CellRecord) (string, error) {
		r, err := serverRun(cfg)
		if err != nil {
			return "", err
		}
		rec.ObserveRun(r.RunResult)
		rec.ObserveLatency(r.P50, r.P95, r.P99, r.P999)
		return fmt.Sprintf("p99=%.0f cyc", r.P99), nil
	}}
}

// ms and tput are the STAMP execution time (ms) and the IntegerSet or
// server throughput (tx/µs) of a cell's measured phase.
func ms(s *CellSim) float64 { return asfstack.RunResult{Cycles: s.Cycles}.Millis() }

func tput(s *CellSim) float64 {
	return asfstack.RunResult{Cycles: s.Cycles, Stats: s.Stats}.Throughput()
}

// entry is the table entry f computes from a cell's report, or "ERR" when
// the cell failed and its report has no sim section.
func entry(c *CellReport, f func(*CellSim) float64) any {
	if c.Sim == nil {
		return "ERR"
	}
	return f(c.Sim)
}

// asfVariants are the four hardware configurations, in figure order.
func asfVariants() []string {
	names := make([]string, len(asf.Variants))
	for i, v := range asf.Variants {
		names[i] = v.Name
	}
	return names
}

var threadCounts = []int{1, 2, 4, 8}

// Fig3 — simulator accuracy: single-threaded STAMP without TM, detailed
// Barcelona model vs the native-reference calibration; reports the
// per-benchmark deviation (the paper's 10–35% bars).
func Fig3(o Options) ([]*Table, error) {
	scale := o.scale()
	var cells []cell
	for _, app := range stamp.Apps {
		for _, native := range []bool{false, true} {
			kind := "sim"
			cfg := stamp.Config{Options: o.spec("Sequential", 1), App: app, Scale: scale}
			if native {
				nr := sim.NativeReference(1)
				kind, cfg.Machine = "native", &nr
			}
			cells = append(cells, stampCell(fmt.Sprintf("fig3 %-14s %s", app, kind), cfg))
		}
	}
	reps, err := runCells(cells, o)

	t := &Table{
		Title:  "Fig. 3 — simulator accuracy (1 thread, no TM): deviation of simulated vs native-reference runtime",
		Header: []string{"benchmark", "sim (ms)", "native-ref (ms)", "deviation (%)"},
		Note:   "paper: 5 of 8 benchmarks within 10–15%; vacation and kmeans deviate most",
	}
	for i, app := range stamp.Apps {
		sc, nc := reps[2*i], reps[2*i+1]
		if sc.Sim == nil || nc.Sim == nil {
			t.Add(app, entry(sc, ms), entry(nc, ms), "ERR")
			continue
		}
		s, n := ms(sc.Sim), ms(nc.Sim)
		t.Add(app, s, n, (s-n)/n*100)
	}
	return []*Table{t}, err
}

// Fig4 — STAMP scalability: execution time (ms) for every application,
// ASF variants and STM across 1–8 threads, plus the sequential bar.
func Fig4(o Options) ([]*Table, error) {
	scale := o.scale()
	rts := append(asfVariants(), "STM")
	nR, nT := len(rts), len(threadCounts)
	var cells []cell
	for _, app := range stamp.Apps {
		for _, rt := range rts {
			for _, th := range threadCounts {
				cfg := stamp.Config{Options: o.spec(rt, th), App: app, Scale: scale}
				cells = append(cells, stampCell(fmt.Sprintf("fig4 %-14s %-14s t=%d", app, rt, th), cfg))
			}
		}
		cfg := stamp.Config{Options: o.spec("Sequential", 1), App: app, Scale: scale}
		cells = append(cells, stampCell(fmt.Sprintf("fig4 %-14s Sequential     t=1", app), cfg))
	}
	reps, err := runCells(cells, o)

	var tables []*Table
	for ai, app := range stamp.Apps {
		t := &Table{
			Title:  fmt.Sprintf("Fig. 4 — STAMP: %s (execution time, ms; lower is better)", app),
			Header: []string{"runtime", "1", "2", "4", "8"},
		}
		cs := reps[ai*(nR*nT+1):] // the app's runtime × thread cells, then Sequential
		for ri, rt := range rts {
			row := []any{rt}
			for ti := range threadCounts {
				row = append(row, entry(cs[ri*nT+ti], ms))
			}
			t.Add(row...)
		}
		t.Add("Sequential", entry(cs[nR*nT], ms), "-", "-", "-")
		tables = append(tables, t)
	}
	return tables, err
}

// fig5Panels are the eight IntegerSet panels of Fig. 5.
var fig5Panels = []intset.Config{
	{Structure: "linkedlist", Range: 28, UpdatePct: 20},
	{Structure: "linkedlist", Range: 512, UpdatePct: 20},
	{Structure: "skiplist", Range: 1024, UpdatePct: 20},
	{Structure: "skiplist", Range: 8192, UpdatePct: 20},
	{Structure: "rbtree", Range: 1024, UpdatePct: 20},
	{Structure: "rbtree", Range: 8192, UpdatePct: 20},
	{Structure: "hashset", Range: 256, UpdatePct: 100},
	{Structure: "hashset", Range: 128000, UpdatePct: 100},
}

// Fig5 — IntegerSet scalability: throughput (tx/µs) for the four ASF
// variants across thread counts, eight panels.
func Fig5(o Options) ([]*Table, error) {
	ops := int(1500 * o.scale())
	rts := asfVariants()
	nR, nT := len(rts), len(threadCounts)
	var cells []cell
	for _, panel := range fig5Panels {
		for _, rt := range rts {
			for _, th := range threadCounts {
				cfg := panel
				cfg.Options = o.spec(rt, th)
				cfg.OpsPerThread = ops
				cells = append(cells, intsetCell(
					fmt.Sprintf("fig5 %-10s r=%-6d %-14s t=%d", panel.Structure, panel.Range, rt, th), cfg))
			}
		}
	}
	reps, err := runCells(cells, o)

	var tables []*Table
	for pi, panel := range fig5Panels {
		t := &Table{
			Title: fmt.Sprintf("Fig. 5 — Intset:%s (range=%d, %d%% upd.) throughput (tx/µs; higher is better)",
				panel.Structure, panel.Range, panel.UpdatePct),
			Header: []string{"variant", "1", "2", "4", "8"},
		}
		for ri, rt := range rts {
			row := []any{rt}
			for ti := range threadCounts {
				row = append(row, entry(reps[(pi*nR+ri)*nT+ti], tput))
			}
			t.Add(row...)
		}
		tables = append(tables, t)
	}
	return tables, err
}

// Fig6 — abort breakdown: percentage of transaction attempts aborted, by
// cause, for every STAMP application, ASF variant and thread count.
func Fig6(o Options) ([]*Table, error) {
	scale := o.scale()
	rts := asfVariants()
	nR, nT := len(rts), len(threadCounts)
	var cells []cell
	for _, app := range stamp.Apps {
		for _, rt := range rts {
			for _, th := range threadCounts {
				cfg := stamp.Config{Options: o.spec(rt, th), App: app, Scale: scale}
				cells = append(cells, stampCell(fmt.Sprintf("fig6 %-14s %-14s t=%d", app, rt, th), cfg))
			}
		}
	}
	reps, err := runCells(cells, o)

	var tables []*Table
	for ai, app := range stamp.Apps {
		t := &Table{
			Title: fmt.Sprintf("Fig. 6 — abort breakdown: %s (%% of attempts)", app),
			Header: []string{"variant", "thr", "contention", "page-fault",
				"capacity", "malloc", "syscall", "other", "total"},
		}
		for ri, rt := range rts {
			for ti, th := range threadCounts {
				c := reps[(ai*nR+ri)*nT+ti]
				if c.Sim == nil {
					t.Add(rt, th, "ERR", "ERR", "ERR", "ERR", "ERR", "ERR", "ERR")
					continue
				}
				st := c.Sim.Stats
				at := float64(st.Attempts())
				if at == 0 {
					at = 1
				}
				pct := func(n uint64) float64 { return float64(n) / at * 100 }
				t.Add(rt, th,
					pct(st.Aborts[sim.AbortContention]),
					pct(st.Aborts[sim.AbortPageFault]),
					pct(st.Aborts[sim.AbortCapacity]),
					pct(st.MallocAborts),
					pct(st.Aborts[sim.AbortSyscall]),
					pct(st.Aborts[sim.AbortInterrupt]+st.Aborts[sim.AbortExplicit]+st.Aborts[sim.AbortDisallowed]),
					pct(st.TotalAborts()+st.MallocAborts))
			}
		}
		tables = append(tables, t)
	}
	return tables, err
}

// Fig7 — ASF capacity: throughput vs transaction size (initial structure
// size) at 8 threads, 20% updates, for the linked list and red-black tree.
func Fig7(o Options) ([]*Table, error) {
	ops := int(1200 * o.scale())
	rts := asfVariants()
	series := []struct {
		structure string
		title     string
		sizes     []int
	}{
		{"linkedlist", "Fig. 7 — Intset:LinkList (8 threads, 20% update): throughput (tx/µs) vs initial size",
			[]int{6, 14, 30, 62, 126, 254, 510}},
		{"rbtree", "Fig. 7 — Intset:RBTree (8 threads, 20% update): throughput (tx/µs) vs initial size",
			[]int{8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096}},
	}

	var cells []cell
	for _, se := range series {
		for _, rt := range rts {
			for _, sz := range se.sizes {
				cfg := intset.Config{
					Options:   o.spec(rt, 8),
					Structure: se.structure, Range: uint64(2 * sz), UpdatePct: 20,
					OpsPerThread: ops,
				}
				cells = append(cells, intsetCell(fmt.Sprintf("fig7 %-10s %-14s size=%-4d", se.structure, rt, sz), cfg))
			}
		}
	}
	reps, err := runCells(cells, o)

	var tables []*Table
	for _, se := range series {
		header := []string{"variant"}
		for _, sz := range se.sizes {
			header = append(header, fmt.Sprint(sz))
		}
		t := &Table{Title: se.title, Header: header}
		for ri, rt := range rts {
			row := []any{rt}
			for zi := range se.sizes {
				row = append(row, entry(reps[ri*len(se.sizes)+zi], tput))
			}
			t.Add(row...)
		}
		tables = append(tables, t)
		reps = reps[len(rts)*len(se.sizes):]
	}
	return tables, err
}

// Fig8 — early release: linked-list throughput with and without early
// release for LLB-8 and LLB-256 (8 threads, 20% updates, sizes 2^3..2^9).
func Fig8(o Options) ([]*Table, error) {
	ops := int(1200 * o.scale())
	sizes := []int{8, 16, 32, 64, 128, 256, 512}
	llbs := []string{"LLB-8", "LLB-256"}
	modes := []bool{false, true}
	var cells []cell
	for _, llb := range llbs {
		for _, er := range modes {
			for _, sz := range sizes {
				cfg := intset.Config{
					Options:   o.spec(llb, 8),
					Structure: "linkedlist", Range: uint64(2 * sz), UpdatePct: 20,
					OpsPerThread: ops, EarlyRelease: er,
				}
				cells = append(cells, intsetCell(fmt.Sprintf("fig8 %-8s er=%-5v size=%-4d", llb, er, sz), cfg))
			}
		}
	}
	reps, err := runCells(cells, o)

	var tables []*Table
	for li, llb := range llbs {
		t := &Table{
			Title:  fmt.Sprintf("Fig. 8 — Intset:LinkList (%s, 8 threads, 20%% update): early-release impact (tx/µs)", llb),
			Header: []string{"mode", "8", "16", "32", "64", "128", "256", "512"},
		}
		for mi, er := range modes {
			label := "Without early release"
			if er {
				label = "With early release"
			}
			row := []any{label}
			for zi := range sizes {
				row = append(row, entry(reps[(li*len(modes)+mi)*len(sizes)+zi], tput))
			}
			t.Add(row...)
		}
		tables = append(tables, t)
	}
	return tables, err
}

// table1Configs are the four single-thread overhead workloads of Table 1 /
// Fig. 9.
var table1Configs = []intset.Config{
	{Structure: "linkedlist", Range: 256, UpdatePct: 20},
	{Structure: "skiplist", Range: 256, UpdatePct: 20},
	{Structure: "rbtree", Range: 256, UpdatePct: 20},
	{Structure: "hashset", Range: 128000, UpdatePct: 100}, // 2^17 buckets
}

// Table1 — single-thread cycle breakdown: ASF-TM (LLB-256) vs TinySTM per
// category, with ratios (Table 1), and the normalised composition (Fig. 9).
func Table1(o Options) ([]*Table, error) {
	ops := int(4000 * o.scale())
	var cells []cell
	for _, cfg := range table1Configs {
		for _, rt := range []string{"LLB-256", "STM"} {
			c := cfg
			c.Options = o.spec(rt, 1)
			c.OpsPerThread = ops
			cells = append(cells, intsetCell(fmt.Sprintf("table1 %-10s %-8s", cfg.Structure, rt), c))
		}
	}
	reps, err := runCells(cells, o)

	cats := []struct {
		label string
		cat   sim.Category
	}{
		{"Non-instr. code", sim.CatNonInstr},
		{"Instr. app. code", sim.CatTxApp},
		{"Abort/restart", sim.CatAbort},
		{"Tx load/store", sim.CatTxLoadStore},
		{"Tx start/commit", sim.CatTxStartCommit},
	}

	var tables []*Table
	norm := &Table{
		Title:  "Fig. 9 — single-thread overhead composition (normalised to the STM total of each benchmark)",
		Header: []string{"benchmark", "runtime", "non-instr", "tx app", "abort", "tx ld/st", "tx start/commit", "total"},
	}
	for ci, cfg := range table1Configs {
		t := &Table{
			Title: fmt.Sprintf("Table 1 — cycles inside transactions: %s / %d%% / %d",
				cfg.Structure, cfg.UpdatePct, cfg.Range/2),
			Header: []string{"category", "ASF", "STM", "ratio (STM/ASF)"},
		}
		// A failed cell's column reads ERR, and so does every ratio to it;
		// Fig. 9 normalises both rows to the STM total.
		cs := [2]*CellSim{reps[2*ci].Sim, reps[2*ci+1].Sim} // ASF, STM
		var b [2]sim.Breakdown
		for i, s := range cs {
			if s != nil {
				b[i] = breakdown(s)
			}
		}
		col := func(i int, cat sim.Category) any {
			if cs[i] == nil {
				return "ERR"
			}
			return b[i][cat]
		}
		for _, cc := range cats {
			ratio := "ERR"
			if cs[0] != nil && cs[1] != nil {
				ratio = "-"
				if a := b[0][cc.cat]; a > 0 {
					ratio = fmt.Sprintf("%.2f", float64(b[1][cc.cat])/float64(a))
				}
			}
			t.Add(cc.label, col(0, cc.cat), col(1, cc.cat), ratio)
		}
		tables = append(tables, t)

		stmTotal := float64(b[1].Total())
		for i, rt := range []string{"ASF", "STM"} {
			if cs[i] == nil || cs[1] == nil {
				norm.Add(cfg.Structure, rt, "ERR", "ERR", "ERR", "ERR", "ERR", "ERR")
				continue
			}
			norm.Add(cfg.Structure, rt,
				float64(b[i][sim.CatNonInstr])/stmTotal,
				float64(b[i][sim.CatTxApp])/stmTotal,
				float64(b[i][sim.CatAbort])/stmTotal,
				float64(b[i][sim.CatTxLoadStore])/stmTotal,
				float64(b[i][sim.CatTxStartCommit])/stmTotal,
				float64(b[i].Total())/stmTotal)
		}
	}
	tables = append(tables, norm)
	return tables, err
}

// breakdown is a cell's per-category cycle count summed over cores, as its
// sim/cycles/* gauges record it.
func breakdown(s *CellSim) sim.Breakdown {
	var b sim.Breakdown
	for k := range b {
		g, _ := s.Metrics.Gauge("sim/cycles/" + sim.Category(k).String())
		b[k] = g.Total
	}
	return b
}
