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
	"asfstack/internal/stamp"
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
// panicking cells must be reported as CellErrors in cell order while the
// healthy cells still complete.
func TestRunCellsCollectsFailures(t *testing.T) {
	var good slot[float64]
	cells := []cell{
		{label: "bad-error", run: func(*CellRecord) (string, error) {
			return "", errors.New("boom")
		}},
		{label: "good", run: func(*CellRecord) (string, error) {
			good.set(1.5)
			return "ok", nil
		}},
		{label: "bad-panic", run: func(*CellRecord) (string, error) {
			panic("kaboom")
		}},
	}
	var prog strings.Builder
	err := runCells(cells, Options{Parallel: 2, Progress: &prog})
	if err == nil {
		t.Fatal("failures not reported")
	}
	if !good.ok || good.val != 1.5 {
		t.Fatalf("healthy cell did not complete: %+v", good)
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

// TestRunReportsFailingCells injects failures into fig3's workload entry
// point: Run must return the full table with ERR cells, join one CellError
// per failure, and keep every healthy row intact — never crash.
func TestRunReportsFailingCells(t *testing.T) {
	orig := stampRun
	defer func() { stampRun = orig }()
	stampRun = func(cfg stamp.Config) (stamp.Result, error) {
		native := cfg.Machine != nil // fig3's native-reference cells
		switch {
		case cfg.App == "ssca2" && !native:
			return stamp.Result{}, errors.New("injected failure")
		case cfg.App == "genome" && native:
			panic("injected panic")
		}
		return stamp.Result{Config: cfg, RunResult: asfstack.RunResult{Cycles: 2_200_000}}, nil // 1 ms
	}

	tables, err := Run("fig3", Options{Scale: 0.1, Parallel: 4})
	if err == nil {
		t.Fatal("failing cells produced no error")
	}
	var ce *CellError
	if !errors.As(err, &ce) {
		t.Fatalf("error %v does not unwrap to *CellError", err)
	}
	for _, want := range []string{"ssca2", "injected failure", "genome", "injected panic"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not mention %q", err, want)
		}
	}
	if len(tables) != 2 { // the fig3 table plus the abort-attribution table
		t.Fatalf("tables = %d, want 2 despite failures", len(tables))
	}
	out := renderTables(tables)
	if !strings.Contains(out, "ERR") {
		t.Fatalf("failed cells not marked ERR:\n%s", out)
	}
	// Healthy rows must carry real values.
	if !strings.Contains(out, fmt.Sprintf("%.2f", 1.0)) {
		t.Fatalf("healthy cells missing from table:\n%s", out)
	}
}
