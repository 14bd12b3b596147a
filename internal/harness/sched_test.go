package harness

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"sync"
	"testing"

	"asfstack"
	"asfstack/internal/intset"
	"asfstack/internal/metrics"
	"asfstack/internal/server"
	"asfstack/internal/stamp"
	"asfstack/internal/tm"
	"asfstack/internal/txprof"
)

// update rewrites the sim pin (testdata/sim_digests.json) from this run's
// digests. TestParallelExperimentDeterminism writes it only when every
// experiment's parallel=1 and parallel=4 runs agree.
var update = flag.Bool("update", false, "rewrite testdata/sim_digests.json when the determinism runs agree")

// simPinPath is the committed pin of the sim contract: one digest per
// experiment in Names, over simSections at the determinism-suite scales.
const simPinPath = "testdata/sim_digests.json"

func renderTables(tables []*Table) string {
	var b strings.Builder
	for _, t := range tables {
		t.Fprint(&b)
	}
	return b.String()
}

// TestFig5ParallelDeterminism: the parallel and sequential schedules of the
// same experiment must produce byte-identical tables — cells are isolated
// machines and assembly happens in figure order, so worker count cannot
// leak into results.
func TestFig5ParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("sweeps are slow")
	}
	render := func(parallel int) string {
		tables, err := Fig5(Options{Scale: 0.03, Parallel: parallel})
		if err != nil {
			t.Fatal(err)
		}
		return renderTables(tables)
	}
	seq := render(1)
	par := render(8)
	if seq != par {
		t.Fatalf("parallel tables differ from sequential:\n--- parallel=1 ---\n%s\n--- parallel=8 ---\n%s", seq, par)
	}
}

// simSections marshals every cell's deterministic section (plus the
// rendered tables) of one experiment run into a single byte string.
func simSections(t *testing.T, name string, o Options) string {
	t.Helper()
	rep, err := RunReport(name, o)
	if err != nil {
		t.Fatalf("%s (parallel=%d): %v", name, o.Parallel, err)
	}
	var b strings.Builder
	b.WriteString(renderTables(rep.Tables))
	for _, c := range rep.Cells {
		j, err := json.Marshal(c.Sim)
		if err != nil {
			t.Fatal(err)
		}
		b.WriteString(c.Label)
		b.WriteString(": ")
		b.Write(j)
		b.WriteString("\n")
	}
	return b.String()
}

// simDigest is the pin's digest of one simSections string: a sha256
// prefix, as bench/asfperf's digests.json uses.
func simDigest(sections string) string {
	sum := sha256.Sum256([]byte(sections))
	return hex.EncodeToString(sum[:])[:16]
}

// TestParallelExperimentDeterminism is the harness-level determinism
// suite: every registered experiment runs with worker counts 1 and 4, and
// both runs' sim sections — every cell's cycles, stats, metrics snapshot,
// profile, and every rendered table — must be byte-identical. Across
// commits, the same bytes must match the pin in testdata/sim_digests.json:
// a change that moves simulated results on purpose re-pins with -update
// and names the experiments that moved.
func TestParallelExperimentDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("sweeps are slow")
	}
	// Per-experiment scales keep the suite inside test-suite time;
	// identity must hold at any scale, so small is as strong as large.
	scales := map[string]float64{
		"fig4": 0.02, "fig6": 0.02, "adaptive": 0.02, "txprof": 0.03,
		"grid64": 0.01, "litmus": 0.02, "server": 0.02,
	}
	var mu sync.Mutex
	digests := make(map[string]string, len(Names))
	// Cleanup runs after every parallel subtest has finished.
	t.Cleanup(func() {
		if !t.Failed() {
			checkSimPin(t, digests)
		}
	})
	for _, name := range Names {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			scale := scales[name]
			if scale == 0 {
				scale = 0.03
			}
			base := simSections(t, name, Options{Scale: scale, Parallel: 1})
			if got := simSections(t, name, Options{Scale: scale, Parallel: 4}); got != base {
				t.Fatalf("%s: sim sections differ between parallel=4 and parallel=1", name)
			}
			mu.Lock()
			digests[name] = simDigest(base)
			mu.Unlock()
		})
	}
}

// checkSimPin compares the digests of the experiments that ran against the
// pin and fails naming every one that moved; with -update it rewrites their
// entries instead.
func checkSimPin(t *testing.T, got map[string]string) {
	pin := map[string]string{}
	data, err := os.ReadFile(simPinPath)
	if err == nil {
		err = json.Unmarshal(data, &pin)
	}
	if err != nil && !(*update && errors.Is(err, os.ErrNotExist)) {
		t.Errorf("reading the sim pin: %v", err)
		return
	}
	if *update {
		for name, d := range got {
			pin[name] = d
		}
		out, err := json.MarshalIndent(pin, "", "  ")
		if err == nil {
			err = os.WriteFile(simPinPath, append(out, '\n'), 0o644)
		}
		if err != nil {
			t.Errorf("writing the sim pin: %v", err)
		}
		return
	}
	var moved []string
	for name, d := range got {
		if pin[name] != d {
			moved = append(moved, fmt.Sprintf("%s (%s, pinned %q)", name, d, pin[name]))
		}
	}
	if len(moved) > 0 {
		slices.Sort(moved)
		t.Errorf("sim sections moved from %s for %d experiment(s): %s; if the change is intended, re-pin with -update and list them in CHANGES.md",
			simPinPath, len(moved), strings.Join(moved, ", "))
	}
}

// TestRunCellsCollectsFailures drives the scheduler directly: erroring and
// panicking cells must be reported as CellErrors in cell order, with
// reports that carry the error and no sim section, while the healthy cells
// still complete.
func TestRunCellsCollectsFailures(t *testing.T) {
	cells := []cell{
		{label: "bad-error", run: func(*CellRecord) (string, error) {
			return "", errors.New("boom")
		}},
		{label: "good", run: func(rec *CellRecord) (string, error) {
			rec.ObserveRun(asfstack.RunResult{Cycles: 15})
			return "ok", nil
		}},
		{label: "bad-panic", run: func(*CellRecord) (string, error) {
			panic("kaboom")
		}},
	}
	var prog strings.Builder
	reps, err := runCells(cells, Options{Parallel: 2, Progress: &prog})
	if err == nil {
		t.Fatal("failures not reported")
	}
	if len(reps) != len(cells) {
		t.Fatalf("%d reports for %d cells", len(reps), len(cells))
	}
	if g := reps[1]; g.Label != "good" || g.Err != "" || g.Sim == nil || g.Sim.Cycles != 15 {
		t.Fatalf("healthy cell did not complete: %+v", g)
	}
	for _, i := range []int{0, 2} {
		if reps[i].Err == "" || reps[i].Sim != nil {
			t.Fatalf("failed cell %q: err %q, sim %+v", reps[i].Label, reps[i].Err, reps[i].Sim)
		}
	}
	var ce *CellError
	if !errors.As(err, &ce) {
		t.Fatalf("error %v does not unwrap to *CellError", err)
	}
	msg := err.Error()
	// Joined in cell order: the erroring cell before the panicking one.
	ei, pi := strings.Index(msg, "bad-error"), strings.Index(msg, "bad-panic")
	if ei < 0 || pi < 0 || ei > pi {
		t.Fatalf("cell errors missing or out of order: %q", msg)
	}
	if !strings.Contains(msg, "kaboom") {
		t.Fatalf("panic not converted to error: %q", msg)
	}
	if !strings.Contains(prog.String(), "FAILED") {
		t.Fatalf("progress stream missing failure line:\n%s", prog.String())
	}
}

// fakeWorkloads replaces the three workload entry points with run for the
// rest of the test.
func fakeWorkloads(t *testing.T, run func(asfstack.Options) (asfstack.RunResult, error)) {
	origStamp, origIntset, origServer := stampRun, intsetRun, serverRun
	t.Cleanup(func() { stampRun, intsetRun, serverRun = origStamp, origIntset, origServer })
	stampRun = func(cfg stamp.Config) (asfstack.RunResult, error) { return run(cfg.Options) }
	intsetRun = func(cfg intset.Config) (asfstack.RunResult, error) { return run(cfg.Options) }
	serverRun = func(cfg server.Config) (server.Result, error) {
		r, err := run(cfg.Options)
		return server.Result{RunResult: r}, err
	}
}

// instantRun is a healthy run that costs no host time. Like every real
// run it has a metrics snapshot, and a profile when asked.
func instantRun(o asfstack.Options) asfstack.RunResult {
	r := asfstack.RunResult{Cycles: 2_200_000, Stats: tm.Stats{Commits: 2200}, Metrics: &metrics.Snapshot{}}
	if o.Profile {
		r.Profile = &txprof.Profile{}
	}
	return r
}

// TestReportWorkersRan: a report records the workers that ran, which
// runCells caps at the cell count, not the pool size asked for.
func TestReportWorkersRan(t *testing.T) {
	fakeWorkloads(t, func(o asfstack.Options) (asfstack.RunResult, error) { return instantRun(o), nil })
	o := Options{Parallel: 4}
	one, err := RunCell("intset structure=rbtree range=1024 cores=2", o)
	if err != nil {
		t.Fatal(err)
	}
	if one.Workers != 1 {
		t.Errorf("one-cell report at Parallel 4 reads %d workers, want 1", one.Workers)
	}
	o.Scale = 0.1
	fig3, err := RunReport("fig3", o)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig3.Cells) != 16 || fig3.Workers != 4 {
		t.Errorf("fig3 at Parallel 4: %d cells, %d workers; want 16 cells, 4 workers", len(fig3.Cells), fig3.Workers)
	}
}

// TestRunReportsFailingCells injects failures into every workload
// experiment through instant fakes of the workload entry points: in each,
// the first cell fails by error and the last by panic. The experiment must
// return all its tables, shaped as in a healthy run, with "ERR" for every
// entry that differs from it, and join exactly one CellError per failed
// cell. ERR may stand only where a value computed from the cells stands
// (an entry that reads ERR when every cell fails), and each of the
// experiment's own tables must keep at least one such value intact, so a
// failure cannot blank out whole tables. Table assembly reads the cell
// reports outside the cells' recover, so a failed cell's missing sim
// section must not crash it.
func TestRunReportsFailingCells(t *testing.T) {
	// Parallel 1 runs the cells in cell order, so calls numbers them.
	var calls, failErr, failPanic int
	var failAll bool
	fakeWorkloads(t, func(o asfstack.Options) (asfstack.RunResult, error) {
		n := calls
		calls++
		switch {
		case failAll || n == failErr:
			return asfstack.RunResult{}, errors.New("injected failure")
		case n == failPanic:
			panic("injected panic")
		}
		return instantRun(o), nil
	})

	for _, name := range Names {
		if name == "litmus" { // runs no workload entry point
			continue
		}
		t.Run(name, func(t *testing.T) {
			o := Options{Scale: 0.1, Parallel: 1}
			calls, failErr, failPanic, failAll = 0, -1, -1, false
			healthy, err := RunReport(name, o)
			if err != nil {
				t.Fatalf("healthy run: %v", err)
			}
			calls, failAll = 0, true
			none, _ := RunReport(name, o)
			if none == nil || len(none.Tables) != len(healthy.Tables) {
				t.Fatalf("run with every cell failing returned no report or lost tables")
			}
			last := len(healthy.Cells) - 1
			calls, failErr, failPanic, failAll = 0, 0, last, false
			rep, err := RunReport(name, o)
			if rep == nil {
				t.Fatalf("no report: %v", err)
			}

			var joined interface{ Unwrap() []error }
			if !errors.As(err, &joined) || len(joined.Unwrap()) != 2 {
				t.Fatalf("error %v does not join two cell errors", err)
			}
			for i, e := range joined.Unwrap() {
				var ce *CellError
				if !errors.As(e, &ce) {
					t.Fatalf("error %v is not a *CellError", e)
				}
				if want := rep.Cells[[]int{0, last}[i]].Label; strings.TrimRight(ce.Cell, " ") != want {
					t.Errorf("cell error %d names %q, want %q", i, ce.Cell, want)
				}
			}
			for _, want := range []string{"injected failure", "injected panic"} {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("error %q does not mention %q", err, want)
				}
			}
			for i, c := range rep.Cells {
				if failed := i == 0 || i == last; failed != (c.Sim == nil) || failed != (c.Err != "") {
					t.Errorf("cell %q: err %q, sim %v", c.Label, c.Err, c.Sim != nil)
				}
			}

			if len(rep.Tables) != len(healthy.Tables) {
				t.Fatalf("tables = %d, want %d despite failures", len(rep.Tables), len(healthy.Tables))
			}
			errs := 0 // ERR entries in the experiment's own tables
			for ti, tab := range rep.Tables {
				want, vals := healthy.Tables[ti], none.Tables[ti]
				if len(tab.Rows) != len(want.Rows) || len(vals.Rows) != len(want.Rows) {
					t.Fatalf("%s: %d rows (%d with every cell failing), want %d",
						tab.Title, len(tab.Rows), len(vals.Rows), len(want.Rows))
				}
				kept := 0 // computed values equal to the healthy run's
				for ri, row := range tab.Rows {
					if len(row) != len(want.Rows[ri]) || len(vals.Rows[ri]) != len(want.Rows[ri]) {
						t.Fatalf("%s row %d: %d entries (%d with every cell failing), want %d",
							tab.Title, ri, len(row), len(vals.Rows[ri]), len(want.Rows[ri]))
					}
					for ci, v := range row {
						computed := vals.Rows[ri][ci] == "ERR"
						switch {
						case v == want.Rows[ri][ci]:
							if computed {
								kept++
							}
						case v != "ERR":
							t.Errorf("%s row %d col %d: %q, want %q or ERR", tab.Title, ri, ci, v, want.Rows[ri][ci])
						case !computed:
							t.Errorf("%s row %d col %d: ERR where the table has no computed value (%q)",
								tab.Title, ri, ci, want.Rows[ri][ci])
						case ti < len(rep.Tables)-1:
							errs++
						}
					}
				}
				if ti < len(rep.Tables)-1 && kept == 0 {
					t.Errorf("%s: no healthy value survived the failures:\n%s", tab.Title, renderTables([]*Table{tab}))
				}
			}
			if errs == 0 {
				t.Fatalf("no ERR entries in the experiment's tables:\n%s", renderTables(rep.Tables))
			}
		})
	}
}
