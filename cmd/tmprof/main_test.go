package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"asfstack/internal/harness"
	"asfstack/internal/sim"
	"asfstack/internal/tm"
	"asfstack/internal/txprof"
)

// testProfile records a short two-core history: core 1's window starts
// before core 0's.
func testProfile() *txprof.Profile {
	rec := txprof.NewRecorder(2, 8)
	rec.Record(0, tm.TxEvent{Time: 5000, Kind: tm.TxEvBegin, Aborter: sim.NoCore, Addr: sim.NoAddr})
	rec.Record(0, tm.TxEvent{Time: 7000, Kind: tm.TxEvCommit, Aborter: sim.NoCore, Addr: sim.NoAddr, Cycles: 2000})
	rec.Record(1, tm.TxEvent{Time: 3000, Kind: tm.TxEvBegin, Aborter: sim.NoCore, Addr: sim.NoAddr})
	rec.Record(1, tm.TxEvent{Time: 4000, Kind: tm.TxEvAbort, Cause: sim.AbortContention,
		Aborter: 0, Addr: 0x40, Cycles: 1000})
	return rec.Profile()
}

// writeReport writes a report of the given version whose txprof experiment
// carries one profiled cell per label, and returns its path.
func writeReport(t *testing.T, version int, p *txprof.Profile, labels ...string) string {
	t.Helper()
	rep := harness.NewBenchReport(1)
	rep.Version = version
	exp := &harness.ExperimentReport{Name: "txprof", Tables: []*harness.Table{{Title: "t"}}}
	for _, l := range labels {
		exp.Cells = append(exp.Cells, &harness.CellReport{Label: l, Sim: &harness.CellSim{Profile: p}})
	}
	rep.Experiments = []*harness.ExperimentReport{exp}
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "report.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestLoadProfilesVersions: every report version asfbench -validate accepts
// is read; versions outside 1..ReportVersion are not.
func TestLoadProfilesVersions(t *testing.T) {
	for v := 0; v <= harness.ReportVersion+1; v++ {
		cells, err := loadProfiles(writeReport(t, v, testProfile(), "cell"), "")
		if ok := v >= 1 && v <= harness.ReportVersion; ok != (err == nil) {
			t.Errorf("version %d: err = %v", v, err)
		} else if ok && len(cells) != 1 {
			t.Errorf("version %d: %d cells, want 1", v, len(cells))
		}
	}
}

// TestLoadProfilesRejectsSchema: a profile of another schema or version is
// an error, not a silent misread.
func TestLoadProfilesRejectsSchema(t *testing.T) {
	for name, mutate := range map[string]func(*txprof.Profile){
		"schema":  func(p *txprof.Profile) { p.Schema = "other/schema" },
		"version": func(p *txprof.Profile) { p.Version++ },
	} {
		p := testProfile()
		mutate(p)
		if _, err := loadProfiles(writeReport(t, harness.ReportVersion, p, "cell"), ""); err == nil {
			t.Errorf("%s: bad profile accepted", name)
		}
	}
}

// TestLoadProfilesRejectsNulls: a null experiment or cell is an error,
// not a nil dereference.
func TestLoadProfilesRejectsNulls(t *testing.T) {
	for name, doc := range map[string]string{
		"experiment": `{"schema":"asfstack/bench-report","version":3,"experiments":[null]}`,
		"cell":       `{"schema":"asfstack/bench-report","version":3,"experiments":[{"name":"x","tables":[{}],"cells":[null]}]}`,
	} {
		path := filepath.Join(t.TempDir(), "report.json")
		if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := loadProfiles(path, ""); err == nil {
			t.Errorf("null %s accepted", name)
		}
	}
}

// TestLoadProfilesFilter: -cell keeps the cells whose "<experiment>
// <label>" contains the substring, in report order.
func TestLoadProfilesFilter(t *testing.T) {
	path := writeReport(t, harness.ReportVersion, testProfile(), "linkedlist LLB-8", "rbtree LLB-8", "linkedlist STM")
	for filter, want := range map[string][]string{
		"":           {"txprof linkedlist LLB-8", "txprof rbtree LLB-8", "txprof linkedlist STM"},
		"linkedlist": {"txprof linkedlist LLB-8", "txprof linkedlist STM"},
		"txprof rb":  {"txprof rbtree LLB-8"},
		"zzz":        nil,
	} {
		cells, err := loadProfiles(path, filter)
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, c := range cells {
			got = append(got, c.Name)
		}
		if strings.Join(got, "|") != strings.Join(want, "|") {
			t.Errorf("-cell %q: %q, want %q", filter, got, want)
		}
	}
}

// TestProfileRun: a profile becomes a run that starts at its earliest
// surviving event and keeps each core's window.
func TestProfileRun(t *testing.T) {
	p := testProfile()
	run := profileRun(p)
	if run.Start != 3000 {
		t.Errorf("Start = %d, want the earliest event's 3000", run.Start)
	}
	if len(run.Events) != 0 || len(run.Tx) != 2 {
		t.Fatalf("run has %d sim events and %d cores, want 0 and 2", len(run.Events), len(run.Tx))
	}
	for core, txs := range run.Tx {
		if len(txs) != len(p.Cores[core].Events) {
			t.Errorf("core %d: %d events, want %d", core, len(txs), len(p.Cores[core].Events))
		}
	}
}
