package trace_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"asfstack/internal/sim"
	"asfstack/internal/tm"
	"asfstack/internal/trace"
)

// renderChrome writes cells through WriteChrome, checks the document is
// valid JSON, and returns its events grouped by name.
func renderChrome(t *testing.T, cells ...trace.ChromeCell) map[string][]map[string]any {
	t.Helper()
	var buf bytes.Buffer
	if err := trace.WriteChrome(&buf, cells); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("not valid JSON: %v\n%s", err, buf.String())
	}
	byName := map[string][]map[string]any{}
	for _, e := range doc.TraceEvents {
		name := e["name"].(string)
		byName[name] = append(byName[name], e)
	}
	return byName
}

// TestWriteChrome renders a synthetic two-core run and checks the document
// structure: per-process metadata, category slices with the right
// durations, and transaction instants carrying abort causes.
func TestWriteChrome(t *testing.T) {
	run := &trace.Run{
		Start: 1000,
		// Core 0: one category slice [1000,3200).
		Events: []sim.TraceEvent{
			{Core: 0, Time: 1000, Kind: sim.TraceCategory, Arg: uint64(sim.CatTxApp)},
			{Core: 0, Time: 3200, Kind: sim.TraceCategory, Arg: uint64(sim.CatNonInstr)},
		},
		Tx: [][]tm.TxEvent{
			// Core 0: a commit; core 1: a capacity abort.
			{{Time: 1100, Kind: tm.TxEvBegin}, {Time: 3200, Kind: tm.TxEvCommit}},
			{{Time: 1500, Kind: tm.TxEvBegin}, {Time: 2500, Kind: tm.TxEvAbort, Cause: sim.AbortCapacity,
				Aborter: sim.NoCore, Addr: sim.NoAddr}},
		},
	}
	// A run that recorded nothing (a Sequential cell) stays out.
	byName := renderChrome(t, trace.ChromeCell{Name: "empty cell", Run: trace.NewRun(2, 0)},
		trace.ChromeCell{Name: "demo cell", Run: run})
	if got := byName["process_name"]; len(got) != 1 || got[0]["pid"] != float64(0) ||
		got[0]["args"].(map[string]any)["name"] != "demo cell" {
		t.Fatalf("process_name events = %+v, want only the demo cell as pid 0", got)
	}
	if got := len(byName["thread_name"]); got != 2 {
		t.Fatalf("thread_name events = %d, want 2 (one per core)", got)
	}
	slices := byName[sim.CatTxApp.String()]
	if len(slices) != 1 {
		t.Fatalf("tx-app slices = %d, want 1", len(slices))
	}
	// [1000,3200) at 2200 cycles/µs: ts=0, dur=1µs.
	if ts := slices[0]["ts"].(float64); ts != 0 {
		t.Errorf("slice ts = %v, want 0 (relative to the run start)", ts)
	}
	if dur := slices[0]["dur"].(float64); dur != 1 {
		t.Errorf("slice dur = %v µs, want 1", dur)
	}
	aborts := byName["tx-abort"]
	if len(aborts) != 1 {
		t.Fatalf("tx-abort events = %d, want 1", len(aborts))
	}
	args := aborts[0]["args"].(map[string]any)
	if args["cause"] != sim.AbortCapacity.String() {
		t.Errorf("abort cause = %v, want %q", args["cause"], sim.AbortCapacity.String())
	}
	if _, ok := args["by"]; ok {
		t.Errorf("abort with no aborter carries by=%v", args["by"])
	}
	if len(byName["tx-begin"]) != 2 || len(byName["tx-commit"]) != 1 {
		t.Errorf("lifecycle events: begin=%d commit=%d, want 2/1",
			len(byName["tx-begin"]), len(byName["tx-commit"]))
	}
}

// TestWriteChromeLifecycleInstants covers the runtime-path and cohort
// lifecycle kinds: fallback transitions carry the entered path, seal and
// turbo points carry the cohort order.
func TestWriteChromeLifecycleInstants(t *testing.T) {
	run := &trace.Run{
		Start: 1000,
		Events: []sim.TraceEvent{
			{Core: 1, Time: 1200, Kind: sim.TraceCohortSeal, Arg: 0},
			{Core: 1, Time: 1300, Kind: sim.TraceTurbo, Arg: 3},
		},
		Tx: [][]tm.TxEvent{{
			{Time: 1100, Kind: tm.TxEvBegin},
			{Time: 1400, Kind: tm.TxEvFallback, Path: tm.PathSerial},
		}},
	}
	byName := renderChrome(t, trace.ChromeCell{Name: "lifecycle cell", Run: run})
	fb := byName["tx-fallback"]
	if len(fb) != 1 {
		t.Fatalf("tx-fallback events = %d, want 1", len(fb))
	}
	if args := fb[0]["args"].(map[string]any); args["path"] != tm.PathSerial.String() {
		t.Errorf("fallback path = %v, want %q", args["path"], tm.PathSerial.String())
	}
	seal := byName["cohort-seal"]
	if len(seal) != 1 || seal[0]["args"].(map[string]any)["order"] != float64(0) {
		t.Fatalf("cohort-seal events = %+v, want one with order 0", seal)
	}
	turbo := byName["turbo"]
	if len(turbo) != 1 || turbo[0]["args"].(map[string]any)["order"] != float64(3) {
		t.Fatalf("turbo events = %+v, want one with order 3", turbo)
	}
	for _, e := range append(seal, turbo...) {
		if e["cat"] != "cohort" {
			t.Errorf("%s category = %v, want \"cohort\"", e["name"], e["cat"])
		}
	}
	if got := len(byName["thread_name"]); got != 2 {
		t.Errorf("thread_name events = %d, want 2", got)
	}
}

// TestWriteChromeTxPayload: transaction instants carry the record's full
// payload — path, cause, causality edge, line, set sizes, cycles — and are
// timestamped relative to the run's start.
func TestWriteChromeTxPayload(t *testing.T) {
	run := &trace.Run{Start: 2200, Tx: [][]tm.TxEvent{
		{
			{Time: 2200, Kind: tm.TxEvBegin, Path: tm.PathHW, Aborter: sim.NoCore, Addr: sim.NoAddr},
			{Time: 4400, Kind: tm.TxEvAbort, Path: tm.PathHW, Cause: sim.AbortContention,
				Aborter: 1, Addr: 0x1040, Reads: 2, Writes: 1, Cycles: 2200},
		},
		{
			{Time: 6600, Kind: tm.TxEvCommit, Path: tm.PathSW, Aborter: sim.NoCore, Addr: sim.NoAddr,
				Reads: 4, Writes: 2, Cycles: 1100},
		},
	}}
	byName := renderChrome(t, trace.ChromeCell{Name: "profiled cell", Run: run})
	begins := byName["tx-begin"]
	if len(begins) != 1 {
		t.Fatalf("tx-begin events = %d, want 1", len(begins))
	}
	if ts := begins[0]["ts"].(float64); ts != 0 || begins[0]["cat"] != "tx" {
		t.Errorf("begin ts = %v cat = %v, want 0 and \"tx\"", ts, begins[0]["cat"])
	}
	aborts := byName["tx-abort"]
	if len(aborts) != 1 {
		t.Fatalf("tx-abort events = %d, want 1", len(aborts))
	}
	// 2200 cycles after the start at 2200 cycles/µs = 1µs.
	if ts := aborts[0]["ts"].(float64); ts != 1 {
		t.Errorf("abort ts = %v µs, want 1", ts)
	}
	args := aborts[0]["args"].(map[string]any)
	if args["path"] != "hw" || args["cause"] != sim.AbortContention.String() || args["by"] != float64(1) ||
		args["addr"] != "0x1040" || args["reads"] != float64(2) || args["wasted_cycles"] != float64(2200) {
		t.Errorf("abort args = %+v", args)
	}
	commits := byName["tx-commit"]
	if len(commits) != 1 {
		t.Fatalf("tx-commit events = %d, want 1", len(commits))
	}
	cargs := commits[0]["args"].(map[string]any)
	if cargs["path"] != "sw" || cargs["reads"] != float64(4) || cargs["cycles"] != float64(1100) {
		t.Errorf("commit args = %+v", cargs)
	}
}
