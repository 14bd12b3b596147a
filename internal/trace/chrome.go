package trace

import (
	"encoding/json"
	"fmt"
	"io"

	"asfstack/internal/sim"
	"asfstack/internal/tm"
)

// Chrome trace_event export: traced runs rendered as a Chrome/Perfetto-
// loadable JSON document (chrome://tracing, https://ui.perfetto.dev). Each
// cell becomes one process, each simulated core one thread; category dwell
// becomes complete ("X") slices, cohort seal and turbo points and every
// tm.TxEvent become instant ("i") events. Timestamps are microseconds at
// the simulated 2.2 GHz clock, relative to each run's Start.

// ChromeCell is one cell's trace: its label and its run.
type ChromeCell struct {
	Name string
	Run  *Run
}

// chromeEvent is one trace_event entry. Chrome's JSON array format.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Cat  string         `json:"cat,omitempty"`
	S    string         `json:"s,omitempty"` // instant-event scope
	Args map[string]any `json:"args,omitempty"`
}

const cyclesPerMicro = 2200.0 // simulated 2.2 GHz clock

// WriteChrome renders cells as one Chrome trace_event JSON document. A cell
// whose run recorded nothing stays out of it.
func WriteChrome(w io.Writer, cells []ChromeCell) error {
	var out []chromeEvent
	pid := 0
	for _, cell := range cells {
		evs := runEvents(pid, cell.Run)
		if len(evs) == 0 {
			continue
		}
		out = append(out, chromeEvent{
			Name: "process_name", Ph: "M", Pid: pid,
			Args: map[string]any{"name": cell.Name},
		})
		out = append(out, evs...)
		pid++
	}
	enc := json.NewEncoder(w)
	return enc.Encode(struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
		DisplayUnit string        `json:"displayTimeUnit"`
	}{TraceEvents: out, DisplayUnit: "ms"})
}

// runEvents renders one run core by core: category slices and cohort
// instants from the sim trace, then the core's transaction instants, then
// its thread name. A core's last slice closes at its last event.
func runEvents(pid int, run *Run) []chromeEvent {
	ts := func(cycles uint64) float64 { return float64(cycles-run.Start) / cyclesPerMicro }
	cores := len(run.Tx)
	for _, e := range run.Events {
		cores = max(cores, e.Core+1)
	}
	perCore := make([][]sim.TraceEvent, cores)
	for _, e := range run.Events {
		perCore[e.Core] = append(perCore[e.Core], e)
	}

	var out []chromeEvent
	for core, evs := range perCore {
		var txs []tm.TxEvent
		if core < len(run.Tx) {
			txs = run.Tx[core]
		}
		var (
			open        bool // a category slice is open since `since`
			cat         sim.Category
			since, last uint64
		)
		instant := func(name, category string, t uint64, args map[string]any) {
			out = append(out, chromeEvent{Name: name, Ph: "i", Pid: pid, Tid: core,
				Ts: ts(t), Cat: category, S: "t", Args: args})
		}
		closeSlice := func(until uint64) {
			if open && until > since {
				out = append(out, chromeEvent{
					Name: cat.String(), Ph: "X", Pid: pid, Tid: core,
					Ts: ts(since), Dur: float64(until-since) / cyclesPerMicro,
					Cat: "category",
				})
			}
			open = false
		}
		for _, e := range evs {
			last = max(last, e.Time)
			switch e.Kind {
			case sim.TraceCategory:
				closeSlice(e.Time)
				open, cat, since = true, sim.Category(e.Arg), e.Time
			case sim.TraceCohortSeal, sim.TraceTurbo:
				instant(e.Kind.String(), "cohort", e.Time, map[string]any{"order": e.Arg})
			}
		}
		for _, ev := range txs {
			last = max(last, ev.Time)
			instant("tx-"+ev.Kind.String(), "tx", ev.Time, txArgs(ev))
		}
		if len(evs)+len(txs) > 0 {
			closeSlice(last)
			out = append(out, chromeEvent{
				Name: "thread_name", Ph: "M", Pid: pid, Tid: core,
				Args: map[string]any{"name": fmt.Sprintf("core %d", core)},
			})
		}
	}
	return out
}

// txArgs is a transaction instant's payload: the path, and for an abort its
// cause, causality edge, set sizes and wasted cycles, for a commit its set
// sizes and cycles.
func txArgs(ev tm.TxEvent) map[string]any {
	args := map[string]any{"path": ev.Path.String()}
	switch ev.Kind {
	case tm.TxEvAbort:
		cause := ev.Cause.String()
		if ev.STM {
			cause = "stm"
		}
		args["cause"] = cause
		if ev.Aborter != sim.NoCore {
			args["by"] = ev.Aborter
		}
		if ev.Addr != sim.NoAddr {
			args["addr"] = ev.Addr.String()
		}
		args["reads"], args["writes"] = ev.Reads, ev.Writes
		args["wasted_cycles"] = ev.Cycles
	case tm.TxEvCommit:
		args["reads"], args["writes"] = ev.Reads, ev.Writes
		args["cycles"] = ev.Cycles
	}
	return args
}
