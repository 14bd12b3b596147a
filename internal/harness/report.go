package harness

import (
	"encoding/json"
	"errors"
	"fmt"
	"slices"

	"asfstack"
	"asfstack/internal/adaptive"
	"asfstack/internal/metrics"
	"asfstack/internal/sim"
	"asfstack/internal/tm"
	"asfstack/internal/trace"
	"asfstack/internal/txprof"
)

// The BenchReport JSON schema. Versioning contract: additions of new fields
// bump nothing (consumers must ignore unknown fields); renames, removals,
// or semantic changes of existing fields bump ReportVersion. The sim
// sections are deterministic — byte-identical for a given seed and scale at
// any Options.Parallel — while the host section is wall-clock and varies.
const (
	// ReportSchema identifies a BenchReport document.
	ReportSchema = "asfstack/bench-report"
	// ReportVersion is the current schema version. Version 2 added the
	// open-loop sojourn-time quantile fields (p50_cyc … p999_cyc) to
	// CellSim. Version 3 removed the execution-engine fields: the report
	// and experiment "engine" strings and the per-cell "engine" section.
	// Consumers accept 1..ReportVersion, treat the latency fields as absent
	// in version 1, and ignore the engine fields of versions 1 and 2.
	ReportVersion = 3
)

// BenchReport is the machine-readable result of one asfbench invocation:
// every experiment run, with its tables, per-cell simulated measurements
// and host-side timing.
type BenchReport struct {
	Schema  string  `json:"schema"`
	Version int     `json:"version"`
	Scale   float64 `json:"scale"`

	Experiments []*ExperimentReport `json:"experiments"`
}

// NewBenchReport returns an empty report with the schema header filled in.
func NewBenchReport(scale float64) *BenchReport {
	if scale <= 0 {
		scale = 1
	}
	return &BenchReport{Schema: ReportSchema, Version: ReportVersion, Scale: scale}
}

// DecodeReport parses a BenchReport document and checks it: the schema, a
// version in 1..ReportVersion, at least one experiment, a name and at least
// one table per experiment, and a label plus either sim results or an error
// per cell. Null experiments, tables and cells are errors, so readers walk
// an accepted report without nil checks.
func DecodeReport(data []byte) (*BenchReport, error) {
	var rep BenchReport
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("not valid JSON: %w", err)
	}
	if rep.Schema != ReportSchema {
		return nil, fmt.Errorf("schema %q, want %q", rep.Schema, ReportSchema)
	}
	if rep.Version < 1 || rep.Version > ReportVersion {
		return nil, fmt.Errorf("version %d, want 1..%d", rep.Version, ReportVersion)
	}
	if len(rep.Experiments) == 0 {
		return nil, errors.New("no experiments")
	}
	for i, e := range rep.Experiments {
		switch {
		case e == nil:
			return nil, fmt.Errorf("experiment %d is null", i)
		case e.Name == "":
			return nil, fmt.Errorf("experiment %d has an empty name", i)
		case len(e.Tables) == 0:
			return nil, fmt.Errorf("experiment %s has no tables", e.Name)
		case slices.Contains(e.Tables, nil):
			return nil, fmt.Errorf("experiment %s has a null table", e.Name)
		}
		for j, c := range e.Cells {
			switch {
			case c == nil:
				return nil, fmt.Errorf("experiment %s cell %d is null", e.Name, j)
			case c.Label == "":
				return nil, fmt.Errorf("experiment %s has a cell with no label", e.Name)
			case c.Err == "" && c.Sim == nil:
				return nil, fmt.Errorf("experiment %s cell %q has neither sim results nor an error", e.Name, c.Label)
			}
		}
	}
	return &rep, nil
}

// ExperimentReport is one experiment's full outcome.
type ExperimentReport struct {
	Name string `json:"name"`
	// Workers records the worker-pool size that drained the cells. Host
	// provenance only — the sim sections are identical for every value.
	Workers int `json:"workers,omitempty"`
	// Err carries the joined cell errors when some cells failed; the
	// tables are still present with ERR entries.
	Err    string        `json:"err,omitempty"`
	Tables []*Table      `json:"tables"`
	Cells  []*CellReport `json:"cells"`
}

// CellReport is one cell — one simulated machine built, run and measured —
// in an ExperimentReport. The Sim section is deterministic; the Host
// section is measured on the host and varies run to run.
type CellReport struct {
	Label string `json:"label"`
	Err   string `json:"err,omitempty"`

	Sim  *CellSim `json:"sim,omitempty"`
	Host CellHost `json:"host"`

	// Trace is the cell's traced measured phase when Options.Trace was
	// set. It is exported through the Chrome trace writer, not the JSON
	// report (volume).
	Trace *trace.Run `json:"-"`
}

// CellSim is the simulated (deterministic) section of a cell report.
type CellSim struct {
	// Cycles is the simulated duration of the measured phase.
	Cycles uint64 `json:"cycles"`
	// Stats are the TM runtime's outcome counters, summed over cores.
	Stats tm.Stats `json:"stats"`
	// Metrics is the cell's full registry snapshot.
	Metrics *metrics.Snapshot `json:"metrics,omitempty"`

	// Wasted-work accounting from the per-category cycle breakdown:
	// WastedCycles is time burned in aborted transaction attempts
	// (sim.CatAbort) summed over cores, BusyCycles the all-category total,
	// WastedPct = 100*wasted/busy. Additive fields — no version bump.
	WastedCycles uint64  `json:"wasted_cycles"`
	BusyCycles   uint64  `json:"busy_cycles"`
	WastedPct    float64 `json:"wasted_pct"`

	// Sojourn-time quantiles (simulated cycles, arrival → commit) for
	// open-loop server cells (E16); all zero elsewhere. Deterministic —
	// they come from the sojourn histogram in the metrics snapshot.
	// Schema version 2.
	P50Cycles  float64 `json:"p50_cyc,omitempty"`
	P95Cycles  float64 `json:"p95_cyc,omitempty"`
	P99Cycles  float64 `json:"p99_cyc,omitempty"`
	P999Cycles float64 `json:"p999_cyc,omitempty"`

	// Switches is the adaptive selector's per-window decision log when the
	// cell ran an Adaptive runtime (E13's machine-readable form).
	Switches []adaptive.Switch `json:"switches,omitempty"`
	// Profile is the transaction-level flight recorder snapshot when the
	// cell recorded one (cmd/tmprof reads this).
	Profile *txprof.Profile `json:"txprof,omitempty"`
}

// CellHost is the host-side (non-deterministic) section of a cell report.
type CellHost struct {
	// WallMS is the cell's host wall time, milliseconds.
	WallMS float64 `json:"wall_ms"`
	// QueueMS is how long the cell waited in the worker pool before a
	// worker picked it up, milliseconds.
	QueueMS float64 `json:"queue_ms"`
}

// CellRecord collects one cell's simulated outcome during its run; the
// scheduler turns it into a CellReport. A nil record is inert so cell
// bodies can record unconditionally.
type CellRecord struct {
	sim   *CellSim
	trace *trace.Run
}

// ObserveRun records the cell's measured phase (once, after the run): the
// simulated measurements, the wasted-work split of its cycle breakdown, the
// adaptive decision log, the flight-recorder profile and the traced run.
func (rec *CellRecord) ObserveRun(r asfstack.RunResult) {
	if rec == nil {
		return
	}
	b := r.Breakdown
	busy := b.Total()
	rec.sim = &CellSim{
		Cycles: r.Cycles, Stats: r.Stats, Metrics: r.Metrics,
		WastedCycles: b[sim.CatAbort], BusyCycles: busy,
		Switches: r.Switches, Profile: r.Profile,
	}
	if busy > 0 {
		rec.sim.WastedPct = 100 * float64(b[sim.CatAbort]) / float64(busy)
	}
	rec.trace = r.Trace
}

// ObserveLatency records the cell's sojourn-time quantiles (open-loop
// server cells). Call after ObserveRun.
func (rec *CellRecord) ObserveLatency(p50, p95, p99, p999 float64) {
	if rec == nil || rec.sim == nil {
		return
	}
	rec.sim.P50Cycles = p50
	rec.sim.P95Cycles = p95
	rec.sim.P99Cycles = p99
	rec.sim.P999Cycles = p999
}

// RunReport executes one named experiment and returns its full report:
// tables (the experiment's own plus the abort-attribution table), and one
// CellReport per cell in cell order. A non-nil error alongside a non-nil
// report joins one *CellError per failed cell, whose table entries read
// "ERR"; a nil report means the experiment name was unknown.
func RunReport(name string, o Options) (*ExperimentReport, error) {
	for _, e := range experiments {
		if e.name == name {
			return runReport(name, e.run, o)
		}
	}
	return nil, fmt.Errorf("harness: unknown experiment %q (want one of %v)", name, Names)
}

// runReport runs an experiment function and assembles its report.
func runReport(name string, run func(Options) ([]*Table, error), o Options) (*ExperimentReport, error) {
	var cells []*CellReport
	o.sink = &cells
	tables, err := run(o)
	// runCells never starts more workers than there are cells.
	rep := &ExperimentReport{Name: name, Workers: min(o.workers(), len(cells)), Tables: tables, Cells: cells}
	if err != nil {
		rep.Err = err.Error()
	}
	rep.Tables = append(rep.Tables, abortTable(name, cells))
	return rep, err
}

// abortTable builds the experiment-wide abort-attribution table: one row
// per cell (configuration), one column per hardware abort reason plus the
// software categories, raw counts. It is assembled from the deterministic
// cell reports in cell order, so its text is identical for any worker
// count.
func abortTable(name string, cells []*CellReport) *Table {
	header := []string{"cell", "commits", "serial", "sw", "seal"}
	for r := 1; r < sim.NumAbortReasons; r++ { // skip AbortNone
		header = append(header, sim.AbortReason(r).String())
	}
	header = append(header, "malloc", "stm", "seq", "wasted-cyc", "wasted%")
	t := &Table{
		Title:  fmt.Sprintf("%s — abort attribution (counts; one row per configuration)", name),
		Header: header,
		Note: "explicit includes malloc-refill aborts; stm counts software validation aborts; " +
			"sw = concurrent software-fallback commits, seq = seqlock-induced hardware aborts (hybrid runtime), " +
			"seal = cohort commit batches (cohorts runtime); " +
			"wasted-cyc/wasted% = cycles burned in aborted attempts and their share of all busy cycles",
	}
	for _, c := range cells {
		if c.Sim == nil {
			row := []any{c.Label}
			for range t.Header[1:] {
				row = append(row, "ERR")
			}
			t.Add(row...)
			continue
		}
		st := c.Sim.Stats
		row := []any{c.Label, st.Commits, st.Serial, st.SWCommits, st.Seals}
		for r := 1; r < sim.NumAbortReasons; r++ {
			row = append(row, st.Aborts[r])
		}
		row = append(row, st.MallocAborts, st.STMAborts, st.SeqAborts,
			c.Sim.WastedCycles, fmt.Sprintf("%.1f", c.Sim.WastedPct))
		t.Add(row...)
	}
	return t
}
