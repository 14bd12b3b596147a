package trace_test

import (
	"testing"

	"asfstack"
	"asfstack/internal/mem"
	"asfstack/internal/sim"
	"asfstack/internal/tm"
	"asfstack/internal/trace"
)

// tracedRun is one traced, profiled measured phase of the contended counter
// workload, with the online figures next to the offline analysis.
type tracedRun struct {
	res  asfstack.RunResult
	ends []uint64
	cbs  []trace.CoreBreakdown
}

// runTraced executes a contended counter workload with tracing and the
// flight recorder on. With irrevocableEvery > 0, every irrevocableEvery-th
// transaction of a core switches to serial-irrevocable mode mid-flight.
func runTraced(t *testing.T, rt string, threads, irrevocableEvery int) tracedRun {
	t.Helper()
	s := asfstack.New(asfstack.Options{Cores: threads, Runtime: rt, Trace: true, Profile: true})
	base := s.AllocShared(8 * mem.LineSize)
	res := s.Measure(func(c *sim.CPU, _ uint64) {
		rng := c.Rand()
		for i := 0; i < 200; i++ {
			a := base + mem.Addr(rng.Intn(8)*mem.LineSize)
			irrevocable := irrevocableEvery > 0 && i%irrevocableEvery == irrevocableEvery-1
			s.Atomic(c, func(tx tm.Tx) {
				tx.CPU().Exec(60)
				if irrevocable {
					tx.(tm.Irrevocably).BecomeIrrevocable()
				}
				tx.Store(a, tx.Load(a)+1)
			})
		}
	})
	ends := make([]uint64, threads)
	for i := range ends {
		ends[i] = s.M.CPU(i).Now()
	}
	cbs, err := trace.Analyze(res.Trace, ends)
	if err != nil {
		t.Fatal(err)
	}
	return tracedRun{res: res, ends: ends, cbs: cbs}
}

// TestOfflineMatchesOnline: the paper's offline trace analysis must agree
// with the online per-category counters — the same breakdown computed two
// independent ways — on every runtime, with and without mid-flight
// irrevocability. The two wasted-cycle figures must agree too: the online
// abort bucket is the flight recorder's wasted cycles plus the back-off
// dwell between attempts.
func TestOfflineMatchesOnline(t *testing.T) {
	for _, cfg := range []struct {
		rt      string
		threads int
	}{
		{"LLB-256", 1},
		{"LLB-256", 4},
		{"LLB-8", 4},
		{"STM", 4},
		{"HyTM-8", 4},
		{"Cohorts", 4},
		{"Cohorts-turbo", 4},
		{"Adaptive-8", 4},
	} {
		t.Run(cfg.rt, func(t *testing.T) {
			for _, mode := range []struct {
				name  string
				every int
			}{{"plain", 0}, {"irrevocable", 7}} {
				t.Run(mode.name, func(t *testing.T) {
					checkOfflineMatchesOnline(t, runTraced(t, cfg.rt, cfg.threads, mode.every), cfg.threads)
				})
			}
		})
	}
}

func checkOfflineMatchesOnline(t *testing.T, r tracedRun, threads int) {
	t.Helper()
	off, on := trace.Total(r.cbs), r.res.Breakdown
	var commits, wasted uint64
	for _, cb := range r.cbs {
		commits += cb.Commits
	}
	for _, txs := range r.res.Trace.Tx {
		for _, ev := range txs {
			if ev.Kind == tm.TxEvAbort {
				wasted += ev.Cycles
			}
		}
	}
	if commits != uint64(threads*200) {
		t.Fatalf("commits = %d, want %d", commits, threads*200)
	}
	for i := 0; i < sim.NumCategories; i++ {
		if off[i] != on[i] {
			t.Errorf("%v: offline %d != online %d", sim.Category(i), off[i], on[i])
		}
	}
	if on[sim.CatAbort] < wasted {
		t.Errorf("online abort bucket %d < aborted attempts' %d cycles", on[sim.CatAbort], wasted)
	}
	if got := r.res.Profile.Summary.WastedCycles; got != wasted {
		t.Errorf("txprof wasted cycles %d != the trace's %d", got, wasted)
	}
	// The category stream alone: its abort dwell is the back-off and
	// waiting between attempts.
	raw, err := trace.Analyze(&trace.Run{Start: r.res.Trace.Start, Events: r.res.Trace.Events}, r.ends)
	if err != nil {
		t.Fatal(err)
	}
	if backoff := trace.Total(raw)[sim.CatAbort]; on[sim.CatAbort] != wasted+backoff {
		t.Errorf("online abort bucket %d != txprof wasted %d + back-off %d", on[sim.CatAbort], wasted, backoff)
	}
}

// category is a category switch on core 0.
func category(at uint64, k sim.Category) sim.TraceEvent {
	return sim.TraceEvent{Core: 0, Time: at, Kind: sim.TraceCategory, Arg: uint64(k)}
}

// TestAnalyzeKeepsIdleCores: a core that recorded no events still ran the
// whole window — spinning or executing uninstrumented code — so it must
// appear in the result with its full window charged to non-instr.
// Regression: Analyze used to build its result from the event stream alone
// and silently dropped idle cores, understating total cycles.
func TestAnalyzeKeepsIdleCores(t *testing.T) {
	run := &trace.Run{Events: []sim.TraceEvent{
		{Core: 1, Time: 10, Kind: sim.TraceCategory, Arg: uint64(sim.CatTxApp)},
	}}
	cbs, err := trace.Analyze(run, []uint64{80, 100, 120})
	if err != nil {
		t.Fatal(err)
	}
	if len(cbs) != 3 {
		t.Fatalf("got %d cores, want 3 (idle cores dropped)", len(cbs))
	}
	for i, cb := range cbs {
		if cb.Core != i {
			t.Fatalf("cbs[%d].Core = %d, want %d", i, cb.Core, i)
		}
	}
	if got := cbs[0].Breakdown[sim.CatNonInstr]; got != 80 {
		t.Errorf("idle core 0: non-instr = %d, want the full 80-cycle window", got)
	}
	if got := cbs[2].Breakdown[sim.CatNonInstr]; got != 120 {
		t.Errorf("idle core 2: non-instr = %d, want the full 120-cycle window", got)
	}
	// The active core is charged as before: [0,10) non-instr, [10,100) tx-app.
	if got := cbs[1].Breakdown[sim.CatNonInstr]; got != 10 {
		t.Errorf("core 1: non-instr = %d, want 10", got)
	}
	if got := cbs[1].Breakdown[sim.CatTxApp]; got != 90 {
		t.Errorf("core 1: tx-app = %d, want 90", got)
	}
}

// TestAnalyzeRejectsUnknownCore: an event from a core with no end time is
// an error, in either stream.
func TestAnalyzeRejectsUnknownCore(t *testing.T) {
	for name, run := range map[string]*trace.Run{
		"category": {Events: []sim.TraceEvent{{Core: 5, Time: 10, Kind: sim.TraceCategory}}},
		"tx":       {Tx: [][]tm.TxEvent{nil, {{Time: 10, Kind: tm.TxEvBegin}}}},
	} {
		if _, err := trace.Analyze(run, []uint64{100}); err == nil {
			t.Errorf("%s: event from core without an end time accepted", name)
		}
	}
}

// TestAnalyzeRejectsBackwardsTime: malformed runs surface as errors.
func TestAnalyzeRejectsBackwardsTime(t *testing.T) {
	for name, run := range map[string]*trace.Run{
		"category": {Events: []sim.TraceEvent{category(100, sim.CatTxApp), category(50, sim.CatNonInstr)}},
		"tx":       {Tx: [][]tm.TxEvent{{{Time: 100, Kind: tm.TxEvBegin}, {Time: 50, Kind: tm.TxEvCommit}}}},
		"past end": {Tx: [][]tm.TxEvent{{{Time: 300, Kind: tm.TxEvCommit}}}},
	} {
		if _, err := trace.Analyze(run, []uint64{200}); err == nil {
			t.Errorf("%s: backwards time accepted", name)
		}
	}
}

// TestAnalyzeRejectsOverlappingAborts: two aborted attempts cannot share
// cycles, and an attempt cannot start before the phase.
func TestAnalyzeRejectsOverlappingAborts(t *testing.T) {
	for name, txs := range map[string][]tm.TxEvent{
		"overlap":      {{Time: 50, Kind: tm.TxEvAbort, Cycles: 30}, {Time: 70, Kind: tm.TxEvAbort, Cycles: 30}},
		"before start": {{Time: 50, Kind: tm.TxEvAbort, Cycles: 60}},
	} {
		run := &trace.Run{Start: 5, Tx: [][]tm.TxEvent{txs}}
		if _, err := trace.Analyze(run, []uint64{200}); err == nil {
			t.Errorf("%s: overlapping aborted attempts accepted", name)
		}
	}
	// Back to back is fine.
	run := &trace.Run{Tx: [][]tm.TxEvent{{{Time: 50, Kind: tm.TxEvAbort, Cycles: 30}, {Time: 80, Kind: tm.TxEvAbort, Cycles: 30}}}}
	if _, err := trace.Analyze(run, []uint64{200}); err != nil {
		t.Errorf("adjacent aborted attempts rejected: %v", err)
	}
}

// TestAnalyzeCountsOutcomes: one aborted and one committed attempt.
func TestAnalyzeCountsOutcomes(t *testing.T) {
	run := &trace.Run{
		Events: []sim.TraceEvent{
			category(10, sim.CatTxApp),
			category(50, sim.CatAbort),
			category(60, sim.CatTxApp),
			category(90, sim.CatNonInstr),
		},
		Tx: [][]tm.TxEvent{{
			{Time: 10, Kind: tm.TxEvBegin},
			{Time: 50, Kind: tm.TxEvAbort, Cycles: 40},
			{Time: 90, Kind: tm.TxEvCommit, Cycles: 30},
		}},
	}
	cbs, err := trace.Analyze(run, []uint64{100})
	if err != nil {
		t.Fatal(err)
	}
	cb := cbs[0]
	if cb.Commits != 1 || cb.Aborts != 1 {
		t.Fatalf("outcomes: %d commits, %d aborts", cb.Commits, cb.Aborts)
	}
	// [10,50) aborted attempt -> CatAbort (40), plus [50,60) back-off 10.
	if cb.Breakdown[sim.CatAbort] != 50 {
		t.Fatalf("CatAbort = %d, want 50", cb.Breakdown[sim.CatAbort])
	}
	// [60,90) committed attempt in CatTxApp.
	if cb.Breakdown[sim.CatTxApp] != 30 {
		t.Fatalf("CatTxApp = %d, want 30", cb.Breakdown[sim.CatTxApp])
	}
	// [0,10) non-instr + [90,100) non-instr.
	if cb.Breakdown[sim.CatNonInstr] != 20 {
		t.Fatalf("CatNonInstr = %d, want 20", cb.Breakdown[sim.CatNonInstr])
	}
}
