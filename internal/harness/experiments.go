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
// run's measured phase is recorded on the cell's report, and fill sets the
// experiment's table slots from the result and returns the progress
// summary (or rejects the result).
func stampCell(label string, cfg stamp.Config, fill func(stamp.Result) (string, error)) cell {
	return cell{label: label, run: func(rec *CellRecord) (string, error) {
		r, err := stampRun(cfg)
		if err != nil {
			return "", err
		}
		rec.ObserveRun(r.RunResult)
		return fill(r)
	}}
}

func intsetCell(label string, cfg intset.Config, fill func(intset.Result) (string, error)) cell {
	return cell{label: label, run: func(rec *CellRecord) (string, error) {
		r, err := intsetRun(cfg)
		if err != nil {
			return "", err
		}
		rec.ObserveRun(r.RunResult)
		return fill(r)
	}}
}

func serverCell(label string, cfg server.Config, fill func(server.Result) (string, error)) cell {
	return cell{label: label, run: func(rec *CellRecord) (string, error) {
		r, err := serverRun(cfg)
		if err != nil {
			return "", err
		}
		rec.ObserveRun(r.RunResult)
		rec.ObserveLatency(r.P50, r.P95, r.P99, r.P999)
		return fill(r)
	}}
}

// millis fills a STAMP execution-time slot (ms).
func millis(dst *slot[float64]) func(stamp.Result) (string, error) {
	return func(r stamp.Result) (string, error) {
		dst.set(r.Millis())
		return fmt.Sprintf("%.3fms", r.Millis()), nil
	}
}

// throughput fills an IntegerSet throughput slot (tx/µs).
func throughput(dst *slot[float64]) func(intset.Result) (string, error) {
	return func(r intset.Result) (string, error) {
		dst.set(r.Throughput())
		return fmt.Sprintf("%.2f tx/us", r.Throughput()), nil
	}
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
	sims := make([]slot[float64], len(stamp.Apps))
	nats := make([]slot[float64], len(stamp.Apps))
	var cells []cell
	for i, app := range stamp.Apps {
		for _, native := range []bool{false, true} {
			dst, kind := &sims[i], "sim"
			cfg := stamp.Config{Options: o.spec("Sequential", 1), App: app, Scale: scale}
			if native {
				nr := sim.NativeReference(1)
				dst, kind, cfg.Machine = &nats[i], "native", &nr
			}
			cells = append(cells, stampCell(fmt.Sprintf("fig3 %-14s %s", app, kind), cfg, millis(dst)))
		}
	}
	err := runCells(cells, o)

	t := &Table{
		Title:  "Fig. 3 — simulator accuracy (1 thread, no TM): deviation of simulated vs native-reference runtime",
		Header: []string{"benchmark", "sim (ms)", "native-ref (ms)", "deviation (%)"},
		Note:   "paper: 5 of 8 benchmarks within 10–15%; vacation and kmeans deviate most",
	}
	for i, app := range stamp.Apps {
		if sims[i].ok && nats[i].ok {
			dev := (sims[i].val - nats[i].val) / nats[i].val * 100
			t.Add(app, sims[i].val, nats[i].val, dev)
		} else {
			t.Add(app, sims[i].cell(), nats[i].cell(), "ERR")
		}
	}
	return []*Table{t}, err
}

// Fig4 — STAMP scalability: execution time (ms) for every application,
// ASF variants and STM across 1–8 threads, plus the sequential bar.
func Fig4(o Options) ([]*Table, error) {
	scale := o.scale()
	rts := append(asfVariants(), "STM")
	nR, nT := len(rts), len(threadCounts)
	ms := make([]slot[float64], len(stamp.Apps)*nR*nT)
	seq := make([]slot[float64], len(stamp.Apps))
	var cells []cell
	for ai, app := range stamp.Apps {
		for ri, rt := range rts {
			for ti, th := range threadCounts {
				cfg := stamp.Config{Options: o.spec(rt, th), App: app, Scale: scale}
				cells = append(cells, stampCell(fmt.Sprintf("fig4 %-14s %-14s t=%d", app, rt, th),
					cfg, millis(&ms[(ai*nR+ri)*nT+ti])))
			}
		}
		cfg := stamp.Config{Options: o.spec("Sequential", 1), App: app, Scale: scale}
		cells = append(cells, stampCell(fmt.Sprintf("fig4 %-14s Sequential     t=1", app), cfg, millis(&seq[ai])))
	}
	err := runCells(cells, o)

	var tables []*Table
	for ai, app := range stamp.Apps {
		t := &Table{
			Title:  fmt.Sprintf("Fig. 4 — STAMP: %s (execution time, ms; lower is better)", app),
			Header: []string{"runtime", "1", "2", "4", "8"},
		}
		for ri, rt := range rts {
			row := []any{rt}
			for ti := range threadCounts {
				row = append(row, ms[(ai*nR+ri)*nT+ti].cell())
			}
			t.Add(row...)
		}
		t.Add("Sequential", seq[ai].cell(), "-", "-", "-")
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
	thr := make([]slot[float64], len(fig5Panels)*nR*nT)
	var cells []cell
	for pi, panel := range fig5Panels {
		for ri, rt := range rts {
			for ti, th := range threadCounts {
				cfg := panel
				cfg.Options = o.spec(rt, th)
				cfg.OpsPerThread = ops
				cells = append(cells, intsetCell(
					fmt.Sprintf("fig5 %-10s r=%-6d %-14s t=%d", panel.Structure, panel.Range, rt, th),
					cfg, throughput(&thr[(pi*nR+ri)*nT+ti])))
			}
		}
	}
	err := runCells(cells, o)

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
				row = append(row, thr[(pi*nR+ri)*nT+ti].cell())
			}
			t.Add(row...)
		}
		tables = append(tables, t)
	}
	return tables, err
}

// abortRow is one Fig. 6 table row's worth of percentages, computed by the
// cell so assembly is pure formatting.
type abortRow struct {
	cont, pf, cap, mal, sys, other, tot float64
}

// Fig6 — abort breakdown: percentage of transaction attempts aborted, by
// cause, for every STAMP application, ASF variant and thread count.
func Fig6(o Options) ([]*Table, error) {
	scale := o.scale()
	rts := asfVariants()
	nR, nT := len(rts), len(threadCounts)
	rows := make([]slot[abortRow], len(stamp.Apps)*nR*nT)
	var cells []cell
	for ai, app := range stamp.Apps {
		for ri, rt := range rts {
			for ti, th := range threadCounts {
				dst := &rows[(ai*nR+ri)*nT+ti]
				cfg := stamp.Config{Options: o.spec(rt, th), App: app, Scale: scale}
				cells = append(cells, stampCell(fmt.Sprintf("fig6 %-14s %-14s t=%d", app, rt, th), cfg,
					func(r stamp.Result) (string, error) {
						at := float64(r.Stats.Attempts())
						if at == 0 {
							at = 1
						}
						pct := func(n uint64) float64 { return float64(n) / at * 100 }
						dst.set(abortRow{
							cont: pct(r.Stats.Aborts[sim.AbortContention]),
							pf:   pct(r.Stats.Aborts[sim.AbortPageFault]),
							cap:  pct(r.Stats.Aborts[sim.AbortCapacity]),
							mal:  pct(r.Stats.MallocAborts),
							sys:  pct(r.Stats.Aborts[sim.AbortSyscall]),
							other: pct(r.Stats.Aborts[sim.AbortInterrupt] +
								r.Stats.Aborts[sim.AbortExplicit] +
								r.Stats.Aborts[sim.AbortDisallowed]),
							tot: pct(r.Stats.TotalAborts() + r.Stats.MallocAborts),
						})
						return fmt.Sprintf("total=%.1f%%", dst.val.tot), nil
					}))
			}
		}
	}
	err := runCells(cells, o)

	var tables []*Table
	for ai, app := range stamp.Apps {
		t := &Table{
			Title: fmt.Sprintf("Fig. 6 — abort breakdown: %s (%% of attempts)", app),
			Header: []string{"variant", "thr", "contention", "page-fault",
				"capacity", "malloc", "syscall", "other", "total"},
		}
		for ri, rt := range rts {
			for ti, th := range threadCounts {
				s := rows[(ai*nR+ri)*nT+ti]
				if s.ok {
					r := s.val
					t.Add(rt, th, r.cont, r.pf, r.cap, r.mal, r.sys, r.other, r.tot)
				} else {
					t.Add(rt, th, "ERR", "ERR", "ERR", "ERR", "ERR", "ERR", "ERR")
				}
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

	slots := make([][]slot[float64], len(series))
	var cells []cell
	for si, se := range series {
		slots[si] = make([]slot[float64], len(rts)*len(se.sizes))
		for ri, rt := range rts {
			for zi, sz := range se.sizes {
				cfg := intset.Config{
					Options:   o.spec(rt, 8),
					Structure: se.structure, Range: uint64(2 * sz), UpdatePct: 20, InitialSize: sz,
					OpsPerThread: ops,
				}
				cells = append(cells, intsetCell(fmt.Sprintf("fig7 %-10s %-14s size=%-4d", se.structure, rt, sz),
					cfg, throughput(&slots[si][ri*len(se.sizes)+zi])))
			}
		}
	}
	err := runCells(cells, o)

	var tables []*Table
	for si, se := range series {
		header := []string{"variant"}
		for _, sz := range se.sizes {
			header = append(header, fmt.Sprint(sz))
		}
		t := &Table{Title: se.title, Header: header}
		for ri, rt := range rts {
			row := []any{rt}
			for zi := range se.sizes {
				row = append(row, slots[si][ri*len(se.sizes)+zi].cell())
			}
			t.Add(row...)
		}
		tables = append(tables, t)
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
	thr := make([]slot[float64], len(llbs)*len(modes)*len(sizes))
	var cells []cell
	for li, llb := range llbs {
		for mi, er := range modes {
			for zi, sz := range sizes {
				cfg := intset.Config{
					Options:   o.spec(llb, 8),
					Structure: "linkedlist", Range: uint64(2 * sz), UpdatePct: 20, InitialSize: sz,
					OpsPerThread: ops, EarlyRelease: er,
				}
				cells = append(cells, intsetCell(fmt.Sprintf("fig8 %-8s er=%-5v size=%-4d", llb, er, sz),
					cfg, throughput(&thr[(li*len(modes)+mi)*len(sizes)+zi])))
			}
		}
	}
	err := runCells(cells, o)

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
				row = append(row, thr[(li*len(modes)+mi)*len(sizes)+zi].cell())
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
	{Structure: "linkedlist", Range: 256, InitialSize: 128, UpdatePct: 20},
	{Structure: "skiplist", Range: 256, InitialSize: 128, UpdatePct: 20},
	{Structure: "rbtree", Range: 256, InitialSize: 128, UpdatePct: 20},
	{Structure: "hashset", Range: 128000, InitialSize: 64000, UpdatePct: 100, HashBits: 17},
}

// Table1 — single-thread cycle breakdown: ASF-TM (LLB-256) vs TinySTM per
// category, with ratios (Table 1), and the normalised composition (Fig. 9).
func Table1(o Options) ([]*Table, error) {
	ops := int(4000 * o.scale())
	asfB := make([]slot[sim.Breakdown], len(table1Configs))
	stmB := make([]slot[sim.Breakdown], len(table1Configs))
	var cells []cell
	for ci, cfg := range table1Configs {
		for _, rt := range []string{"LLB-256", "STM"} {
			dst := &asfB[ci]
			if rt == "STM" {
				dst = &stmB[ci]
			}
			c := cfg
			c.Options = o.spec(rt, 1)
			c.OpsPerThread = ops
			cells = append(cells, intsetCell(fmt.Sprintf("table1 %-10s %-8s", cfg.Structure, rt), c,
				func(r intset.Result) (string, error) {
					dst.set(r.Breakdown)
					return fmt.Sprintf("total=%d cycles", r.Breakdown.Total()), nil
				}))
		}
	}
	err := runCells(cells, o)

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
				cfg.Structure, cfg.UpdatePct, cfg.InitialSize),
			Header: []string{"category", "ASF", "STM", "ratio (STM/ASF)"},
		}
		if !asfB[ci].ok || !stmB[ci].ok {
			for _, cc := range cats {
				t.Add(cc.label, "ERR", "ERR", "ERR")
			}
			tables = append(tables, t)
			norm.Add(cfg.Structure, "ASF", "ERR", "ERR", "ERR", "ERR", "ERR", "ERR")
			norm.Add(cfg.Structure, "STM", "ERR", "ERR", "ERR", "ERR", "ERR", "ERR")
			continue
		}
		a, s := asfB[ci].val, stmB[ci].val
		for _, cc := range cats {
			ratio := "-"
			if a[cc.cat] > 0 {
				ratio = fmt.Sprintf("%.2f", float64(s[cc.cat])/float64(a[cc.cat]))
			}
			t.Add(cc.label, a[cc.cat], s[cc.cat], ratio)
		}
		tables = append(tables, t)

		stmTotal := float64(s.Total())
		for _, e := range []struct {
			rt string
			b  sim.Breakdown
		}{{"ASF", a}, {"STM", s}} {
			rt, b := e.rt, e.b
			norm.Add(cfg.Structure, rt,
				float64(b[sim.CatNonInstr])/stmTotal,
				float64(b[sim.CatTxApp])/stmTotal,
				float64(b[sim.CatAbort])/stmTotal,
				float64(b[sim.CatTxLoadStore])/stmTotal,
				float64(b[sim.CatTxStartCommit])/stmTotal,
				float64(b.Total())/stmTotal)
		}
	}
	tables = append(tables, norm)
	return tables, err
}
