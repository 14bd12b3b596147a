package harness

import (
	"encoding/json"
	"strings"
	"testing"

	"asfstack/internal/sim"
	"asfstack/internal/tm"
)

// TestTableFprintGolden pins Fprint's exact rendering: column alignment
// from the widest cell, counted in runes (tx/µs, p50…max), ERR cells,
// separator row, trailing-space trimming, and the Note footer.
func TestTableFprintGolden(t *testing.T) {
	tab := &Table{
		Title:  "golden",
		Header: []string{"cell", "value", "tx/µs", "note-col"},
		Note:   "footer",
	}
	tab.Add("short", 1.5, "p50…max", "a")
	tab.Add("a-much-longer-cell", "ERR", 2, "bb")
	var b strings.Builder
	tab.Fprint(&b)
	want := "\n== golden ==\n" +
		"cell                value  tx/µs    note-col\n" +
		"------------------  -----  -------  --------\n" +
		"short               1.50   p50…max  a\n" +
		"a-much-longer-cell  ERR    2        bb\n" +
		"note: footer\n"
	if got := b.String(); got != want {
		t.Fatalf("Fprint rendering changed:\n--- got ---\n%q\n--- want ---\n%q", got, want)
	}
}

// TestRunReportUnknownName: an unknown experiment yields a nil report and
// an error.
func TestRunReportUnknownName(t *testing.T) {
	rep, err := RunReport("fig99", Options{})
	if err == nil {
		t.Fatal("unknown experiment accepted")
	}
	if rep != nil {
		t.Fatal("unknown experiment produced a report")
	}
}

// TestBenchReportSchema: the envelope carries the schema header and
// round-trips through JSON.
func TestBenchReportSchema(t *testing.T) {
	rep := NewBenchReport(0) // zero scale normalises to 1.0
	if rep.Schema != ReportSchema || rep.Version != ReportVersion {
		t.Fatalf("header = %q v%d", rep.Schema, rep.Version)
	}
	if rep.Scale != 1 {
		t.Fatalf("scale = %v, want 1", rep.Scale)
	}
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var back BenchReport
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Schema != ReportSchema || back.Version != ReportVersion {
		t.Fatalf("round-trip header = %q v%d", back.Schema, back.Version)
	}
}

// TestRunReportTable1 exercises the full report path on the cheapest real
// experiment: every cell must carry a deterministic sim section (cycles,
// stats, metrics) and a host section, and the abort-attribution table must
// be appended with one row per cell.
func TestRunReportTable1(t *testing.T) {
	if testing.Short() {
		t.Skip("sweeps are slow")
	}
	rep, err := RunReport("table1", Options{Scale: 0.05, Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Name != "table1" {
		t.Fatalf("name = %q", rep.Name)
	}
	if len(rep.Cells) != 8 { // 4 structures × {ASF, STM}
		t.Fatalf("cells = %d, want 8", len(rep.Cells))
	}
	for _, c := range rep.Cells {
		if c.Err != "" {
			t.Fatalf("cell %q failed: %s", c.Label, c.Err)
		}
		if c.Sim == nil || c.Sim.Cycles == 0 || c.Sim.Stats.Commits == 0 {
			t.Fatalf("cell %q: missing sim section: %+v", c.Label, c.Sim)
		}
		if c.Sim.Metrics == nil {
			t.Fatalf("cell %q: missing metrics snapshot", c.Label)
		}
		if c.Host.WallMS <= 0 {
			t.Fatalf("cell %q: wall time %v", c.Label, c.Host.WallMS)
		}
		if c.Host.QueueMS < 0 {
			t.Fatalf("cell %q: negative queue latency %v", c.Label, c.Host.QueueMS)
		}
		// The tm-level gauges must agree with the runtime's stats.
		if g, ok := c.Sim.Metrics.Gauge("tm/commits"); !ok || g.Total != c.Sim.Stats.Commits {
			t.Fatalf("cell %q: tm/commits gauge %+v disagrees with stats %d",
				c.Label, g, c.Sim.Stats.Commits)
		}
	}
	last := rep.Tables[len(rep.Tables)-1]
	if !strings.Contains(last.Title, "abort attribution") {
		t.Fatalf("last table is %q, want the abort-attribution table", last.Title)
	}
	if len(last.Rows) != len(rep.Cells) {
		t.Fatalf("abort table rows = %d, want one per cell (%d)", len(last.Rows), len(rep.Cells))
	}
	for _, col := range []string{"commits", "contention", "capacity", "malloc", "stm"} {
		found := false
		for _, h := range last.Header {
			if h == col {
				found = true
			}
		}
		if !found {
			t.Fatalf("abort table header %v missing %q", last.Header, col)
		}
	}
}

// TestAbortTableGolden pins the abort-attribution table's exact column
// order and rendering — the one report surface with no golden before the
// hybrid columns (sw, seq) were added. Reordering, renaming, or dropping a
// column is a schema change for report consumers and must show up here.
func TestAbortTableGolden(t *testing.T) {
	var st tm.Stats
	st.Commits = 100
	st.Serial = 3
	st.SWCommits = 40
	st.Seals = 12
	st.Aborts[sim.AbortContention] = 7
	st.Aborts[sim.AbortCapacity] = 5
	st.Aborts[sim.AbortExplicit] = 2
	st.MallocAborts = 2
	st.STMAborts = 9
	st.SeqAborts = 4
	cells := []*CellReport{
		{Label: "hybrid demo t=8", Sim: &CellSim{Cycles: 1, Stats: st,
			WastedCycles: 1234, BusyCycles: 10000, WastedPct: 12.34}},
		{Label: "failed cell"}, // no sim section: every column reads ERR
	}
	var b strings.Builder
	abortTable("hybrid", cells).Fprint(&b)
	want := "\n== hybrid — abort attribution (counts; one row per configuration) ==\n" +
		"cell             commits  serial  sw   seal  contention  capacity  page-fault  interrupt  syscall  explicit  disallowed  nesting  malloc  stm  seq  wasted-cyc  wasted%\n" +
		"---------------  -------  ------  ---  ----  ----------  --------  ----------  ---------  -------  --------  ----------  -------  ------  ---  ---  ----------  -------\n" +
		"hybrid demo t=8  100      3       40   12    7           5         0           0          0        2         0           0        2       9    4    1234        12.3\n" +
		"failed cell      ERR      ERR     ERR  ERR   ERR         ERR       ERR         ERR        ERR      ERR       ERR         ERR      ERR     ERR  ERR  ERR         ERR\n" +
		"note: explicit includes malloc-refill aborts; stm counts software validation aborts; " +
		"sw = concurrent software-fallback commits, seq = seqlock-induced hardware aborts (hybrid runtime), " +
		"seal = cohort commit batches (cohorts runtime); " +
		"wasted-cyc/wasted% = cycles burned in aborted attempts and their share of all busy cycles\n"
	if got := b.String(); got != want {
		t.Fatalf("abort table rendering changed:\n--- got ---\n%q\n--- want ---\n%q", got, want)
	}
}

// TestDecodeReportRejects: every malformed document is an error, never a
// panic; null experiments, tables and cells included.
func TestDecodeReportRejects(t *testing.T) {
	const head = `{"schema":"asfstack/bench-report","version":3,"experiments":`
	for name, doc := range map[string]string{
		"not JSON":          `{"schema":`,
		"wrong schema":      `{"schema":"other","version":3,"experiments":[{"name":"x","tables":[{}]}]}`,
		"version 0":         `{"schema":"asfstack/bench-report","version":0,"experiments":[{"name":"x","tables":[{}]}]}`,
		"version 4":         `{"schema":"asfstack/bench-report","version":4,"experiments":[{"name":"x","tables":[{}]}]}`,
		"no experiments":    head + `[]}`,
		"null experiment":   head + `[null]}`,
		"empty name":        head + `[{"tables":[{}]}]}`,
		"no tables":         head + `[{"name":"x"}]}`,
		"null table":        head + `[{"name":"x","tables":[null]}]}`,
		"null cell":         head + `[{"name":"x","tables":[{}],"cells":[null]}]}`,
		"unlabelled cell":   head + `[{"name":"x","tables":[{}],"cells":[{"sim":{}}]}]}`,
		"cell without data": head + `[{"name":"x","tables":[{}],"cells":[{"label":"c"}]}]}`,
	} {
		if rep, err := DecodeReport([]byte(doc)); err == nil {
			t.Errorf("%s: accepted as %+v", name, rep)
		}
	}
	rep, err := DecodeReport([]byte(head + `[{"name":"x","tables":[{}],"cells":[{"label":"c","err":"boom"}]}]}`))
	if err != nil || rep.Version != ReportVersion {
		t.Fatalf("failed-cell report: %v, %v", rep, err)
	}
}

// FuzzDecodeReport: DecodeReport never panics, and a document it accepts
// re-encodes to one it accepts again at the same version.
// testdata/fuzz/FuzzDecodeReport holds two documents that used to panic
// the report readers (a null experiment, a null cell) and a valid report
// of each version.
func FuzzDecodeReport(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		rep, err := DecodeReport(data)
		if err != nil {
			return
		}
		again, err := json.Marshal(rep)
		if err != nil {
			t.Fatalf("accepted report does not re-encode: %v", err)
		}
		back, err := DecodeReport(again)
		if err != nil || back.Version != rep.Version {
			t.Fatalf("re-encoded v%d report decodes to %v, %v", rep.Version, back, err)
		}
	})
}
