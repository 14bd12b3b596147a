package sim

// Tracing reproduces the paper's overhead-analysis methodology (§5): the
// authors annotated the final binaries line-by-line with categories,
// extended the simulator to produce a timed trace, and computed the cycle
// breakdown by offline analysis — "without any interference with the
// benchmark's execution". Here, category switches (plus the cohort seal and
// turbo points) are recorded as timestamped events when tracing is enabled.
// Transaction lifecycle points are not: the runtimes report those once, as
// tm.TxEvent records, and package trace replays both streams into a
// per-category breakdown that must agree with the online counters.

// TraceKind tags a trace event.
type TraceKind uint8

const (
	// TraceCategory: the core switched accounting category (Arg is the
	// new Category).
	TraceCategory TraceKind = iota
	// TraceCohortSeal: this core sealed its commit cohort (it was the
	// first member to reach the commit point; Arg is the seal order the
	// core drew, 0 for the sealer).
	TraceCohortSeal
	// TraceTurbo: the last member of a sealed cohort entered turbo mode
	// (uninstrumented direct execution; Arg is the core's cohort order).
	TraceTurbo
)

func (k TraceKind) String() string {
	switch k {
	case TraceCategory:
		return "category"
	case TraceCohortSeal:
		return "cohort-seal"
	case TraceTurbo:
		return "turbo"
	default:
		return "trace(?)"
	}
}

// TraceEvent is one timestamped event on one core.
type TraceEvent struct {
	Core int
	Time uint64
	Kind TraceKind
	Arg  uint64
}

// EnableTrace starts recording trace events (call before Run).
func (m *Machine) EnableTrace() {
	for _, c := range m.cpus {
		c.tracing = true
	}
}

// TraceEvents drains and returns all recorded events in per-core
// chronological order (cores concatenated).
func (m *Machine) TraceEvents() []TraceEvent {
	var out []TraceEvent
	for _, c := range m.cpus {
		out = append(out, c.trace...)
		c.trace = nil
	}
	return out
}

// Trace records an event at the core's current time (no cycle cost — the
// paper's methodology explicitly avoids online bookkeeping interference).
func (c *CPU) Trace(kind TraceKind, arg uint64) {
	if !c.tracing {
		return
	}
	c.trace = append(c.trace, TraceEvent{Core: c.id, Time: c.Now(), Kind: kind, Arg: arg})
}
