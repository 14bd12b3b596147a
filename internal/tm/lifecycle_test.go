package tm

import (
	"testing"

	"asfstack/internal/mem"
	"asfstack/internal/sim"
)

// fakeTx is the descriptor of a fake two-path runtime. Each attempt spends
// 10 cycles in its begin function and then runs the body; the first
// fails[p] attempts on path p then fail, a hardware one by returning false
// and a software one by Abandon, blaming core 1 and mem.PageSize.
// Rollback spends 7 cycles, every retry 5 and entering the software path 3.
type fakeTx struct {
	*DirectTx
	Frame
	fails [NumTxPaths]int
	tries [NumTxPaths]int
	boom  func() // run after the body, to panic

	started uint64   // clock at the start of the current attempt
	wasted  []uint64 // durations of the failed attempts, rollback included
	commits []int    // the n of each Committed call
}

func newFake(c *sim.CPU) *fakeTx { return &fakeTx{DirectTx: Direct(c, nil)} }

func (t *fakeTx) Irrevocable() bool { return t.Frame.Irrevocable() }

func (t *fakeTx) Enter(p TxPath) {
	if p == PathSW {
		t.c.Cycles(3)
	}
}

func (t *fakeTx) Attempt(p TxPath, body func(Tx)) bool {
	t.started = t.c.Now()
	t.c.Cycles(10)
	RunBody(t.c, t, body)
	if t.boom != nil {
		t.boom()
	}
	if t.tries[p]++; t.tries[p] > t.fails[p] {
		return true
	}
	if p == PathSW {
		t.Abandon(t.c, 1, mem.PageSize)
	}
	return false
}

func (t *fakeTx) Aborted(p TxPath, ev TxEvent) TxEvent {
	t.c.Cycles(7)
	t.wasted = append(t.wasted, t.c.Now()-t.started)
	ev.Cause, ev.STM = sim.AbortContention, p == PathSW
	return ev
}

func (t *fakeTx) Retry(p TxPath, n int) TxPath {
	t.c.Cycles(5)
	if p == PathHW && n >= t.fails[PathHW] {
		return PathSW
	}
	return p
}

func (t *fakeTx) Committed(p TxPath, n int, ev TxEvent) TxEvent {
	t.commits = append(t.commits, n)
	return ev
}

// events is a TxProfiler that keeps every event.
type events []TxEvent

func (e *events) Record(_ int, ev TxEvent) { *e = append(*e, ev) }

// TestLifecycleDriverContract runs one transaction of the fake runtime
// through two failed hardware attempts, a fallback, an unwound software
// attempt and a software commit, with a nested Atomic in every body.
func TestLifecycleDriverContract(t *testing.T) {
	m := sim.New(sim.Barcelona(1))
	l := NewLifecycle(1)
	var got events
	l.SetProfiler(&got)
	var d *fakeTx
	bodies, inner := 0, 0
	m.Run(func(c *sim.CPU) {
		d = newFake(c)
		d.fails[PathHW], d.fails[PathSW] = 2, 1
		l.Run(c, d, PathHW, func(tx Tx) {
			bodies++
			tx.CPU().Cycles(20)
			l.Run(c, d, PathSW, func(Tx) { inner++ })
		})
	})

	want := []struct {
		kind TxEventKind
		path TxPath
	}{
		{TxEvBegin, PathHW}, {TxEvAbort, PathHW}, {TxEvAbort, PathHW},
		{TxEvFallback, PathSW}, {TxEvAbort, PathSW}, {TxEvCommit, PathSW},
	}
	if len(got) != len(want) {
		t.Fatalf("%d events %+v, want %d", len(got), got, len(want))
	}
	var aborted uint64
	for i, w := range want {
		if got[i].Kind != w.kind || got[i].Path != w.path {
			t.Errorf("event %d = %v on %v, want %v on %v", i, got[i].Kind, got[i].Path, w.kind, w.path)
		}
		if got[i].Kind == TxEvAbort {
			aborted += got[i].Cycles
		}
	}
	if len(d.wasted) != 3 {
		t.Fatalf("%d failed attempts, want 3", len(d.wasted))
	}
	for i, ev := range []TxEvent{got[1], got[2], got[4]} {
		if ev.Cycles != d.wasted[i] || ev.Cause != sim.AbortContention {
			t.Errorf("abort %d: %d cycles (%v), want the attempt's %d (contention)", i, ev.Cycles, ev.Cause, d.wasted[i])
		}
		by, addr := sim.NoCore, sim.NoAddr
		if ev.Path == PathSW {
			by, addr = 1, mem.PageSize
		}
		if ev.Aborter != by || ev.Addr != addr {
			t.Errorf("abort %d on %v blames core %d at %#x, want %d at %#x", i, ev.Path, ev.Aborter, ev.Addr, by, addr)
		}
	}
	b := m.CPU(0).Counters()
	// CatAbort holds the failed attempts plus what ran under it: three
	// retries and entering the software path.
	if want := aborted + 3*5 + 3; b[sim.CatAbort] != want {
		t.Errorf("CatAbort = %d, want %d", b[sim.CatAbort], want)
	}
	if commit := got[5].Cycles; commit != 30 || b[sim.CatTxApp]+b[sim.CatTxStartCommit] != commit {
		t.Errorf("commit event %d cycles, counters %d app + %d start/commit; want 30 in both",
			commit, b[sim.CatTxApp], b[sim.CatTxStartCommit])
	}
	if len(d.commits) != 1 || d.commits[0] != 2 {
		t.Errorf("Committed calls %v, want one for attempt 2 on its path", d.commits)
	}
	if st := l.Stats(0); st.Commits != 1 || st.Serial != 0 || st.STMAborts != 1 {
		t.Errorf("stats %+v, want one commit and one software abort", st)
	}
	if bodies != 4 || inner != bodies {
		t.Errorf("%d bodies ran %d nested blocks, want 4 of each", bodies, inner)
	}
	if d.depth != 0 {
		t.Errorf("nesting depth %d after the transaction", d.depth)
	}
}

// TestLifecyclePanicResetsNesting: a panic that is not this core's Abandon
// propagates out of Run and leaves the core's nesting depth reset, so the
// next transaction runs.
func TestLifecyclePanicResetsNesting(t *testing.T) {
	m := sim.New(sim.Barcelona(2))
	l := NewLifecycle(2)
	var got events
	l.SetProfiler(&got)
	d := newFake(m.CPU(0))
	for _, boom := range []func(){func() { panic("boom") }, func() { d.Abandon(m.CPU(1), sim.NoCore, sim.NoAddr) }} {
		d.boom = boom
		rec := func() (rec any) {
			defer func() { rec = recover() }()
			l.Run(m.CPU(0), d, PathSW, func(Tx) {})
			return nil
		}()
		if rec == nil {
			t.Fatal("the panic did not propagate")
		}
		if d.depth != 0 {
			t.Fatalf("panic %v left nesting depth %d", rec, d.depth)
		}
	}
	d.boom = nil
	got = nil
	l.Run(m.CPU(0), d, PathSW, func(Tx) {})
	if len(got) != 2 || got[0].Kind != TxEvBegin || got[1].Kind != TxEvCommit {
		t.Fatalf("transaction after the panics: events %+v, want begin and commit", got)
	}
}

// TestAttemptUnwindsOwnCoreOnly: an attempt reports false only when it is
// abandoned on its own core; another core's Abandon and any other panic
// propagate.
func TestAttemptUnwindsOwnCoreOnly(t *testing.T) {
	m := sim.New(sim.Barcelona(2))
	c0, c1 := m.CPU(0), m.CPU(1)
	d := newFake(c0)
	noop := func(Tx) {}
	if !attempt(c0, d, PathSW, noop) {
		t.Fatal("a completed attempt reported false")
	}
	d.fails[PathSW] = 2
	if attempt(c0, d, PathSW, noop) {
		t.Fatal("an unwound attempt reported true")
	}
	propagated := func(boom func()) (rec any) {
		defer func() { rec = recover() }()
		d.boom = boom
		attempt(c0, d, PathSW, noop)
		return nil
	}
	if rec := propagated(func() { d.Abandon(c1, sim.NoCore, sim.NoAddr) }); rec != (unwind{core: 1}) {
		t.Fatalf("core 1's unwind inside core 0's attempt: recovered %v, want it re-panicked", rec)
	}
	if rec := propagated(func() { panic("boom") }); rec != "boom" {
		t.Fatalf("foreign panic: recovered %v, want it re-panicked", rec)
	}
}

// TestSerialTokenOneDrawPerFailedCAS: Acquire draws the core's generator
// once per failed CAS and not on the CAS that succeeds.
func TestSerialTokenOneDrawPerFailedCAS(t *testing.T) {
	cfg := sim.Barcelona(2)
	m := sim.New(cfg)
	tok := SerialToken{Addr: mem.PageSize}
	m.Mem.Prefault(tok.Addr, mem.LineSize)
	cas := 0
	m.SetAccessHook(func(c *sim.CPU, a mem.Addr, f sim.Flags) {
		if c.ID() == 0 && a == tok.Addr && f&sim.FAtomic != 0 && f&sim.FPre == 0 {
			cas++
		}
	})
	m.Run(func(c *sim.CPU) {
		c.Cycles(50) // let core 1 take the token first
		tok.Acquire(c)
	}, func(c *sim.CPU) {
		tok.Acquire(c)
		c.Cycles(2000)
		tok.Release(c)
	})
	if cas < 2 {
		t.Fatalf("core 0 tried %d CAS, want it to fail at least once", cas)
	}
	ref := sim.New(cfg).CPU(0).Rand()
	for i := 0; i < cas-1; i++ {
		ref.Int63n(400)
	}
	if m.CPU(0).Rand().Int63() != ref.Int63() {
		t.Fatalf("after %d failed CAS the generator is not %d draws along", cas-1, cas-1)
	}
	if got := m.Mem.Load(tok.Addr); got != 1 {
		t.Fatalf("token word %d after the last Acquire, want 1", got)
	}
}
