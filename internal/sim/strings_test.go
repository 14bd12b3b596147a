package sim

import (
	"strings"
	"testing"
)

// TestEnumStrings pins the human-readable names used in reports and logs.
func TestEnumStrings(t *testing.T) {
	wantReasons := map[AbortReason]string{
		AbortNone: "none", AbortContention: "contention",
		AbortCapacity: "capacity", AbortPageFault: "page-fault",
		AbortInterrupt: "interrupt", AbortSyscall: "syscall",
		AbortExplicit: "explicit", AbortDisallowed: "disallowed",
		AbortNesting: "nesting",
	}
	for r, want := range wantReasons {
		if r.String() != want {
			t.Errorf("AbortReason(%d).String() = %q, want %q", r, r.String(), want)
		}
	}
	if !strings.Contains(AbortReason(200).String(), "200") {
		t.Error("unknown reason should include its value")
	}

	wantCats := map[Category]string{
		CatNonInstr: "non-instr", CatTxApp: "tx-app",
		CatTxLoadStore: "tx-load/store", CatTxStartCommit: "tx-start/commit",
		CatAbort: "abort/restart",
	}
	for c, want := range wantCats {
		if c.String() != want {
			t.Errorf("Category(%d).String() = %q, want %q", c, c.String(), want)
		}
	}

	for _, k := range []TraceKind{TraceCategory, TraceCohortSeal, TraceTurbo} {
		if k.String() == "" || strings.Contains(k.String(), "?") {
			t.Errorf("TraceKind(%d) has no name", k)
		}
	}
}

func TestAbortErrorMessage(t *testing.T) {
	e := &AbortError{Core: 3, Reason: AbortCapacity}
	if !strings.Contains(e.Error(), "core 3") || !strings.Contains(e.Error(), "capacity") {
		t.Errorf("Error() = %q", e.Error())
	}
}

func TestBreakdownArithmetic(t *testing.T) {
	a := Breakdown{1, 2, 3, 4, 5}
	b := Breakdown{10, 20, 30, 40, 50}
	if got := a.Total(); got != 15 {
		t.Errorf("Total = %d", got)
	}
	sum := a.Add(b)
	if sum[CatTxApp] != 22 {
		t.Errorf("Add = %v", sum)
	}
	if d := b.Sub(a); d[CatAbort] != 45 {
		t.Errorf("Sub = %v", d)
	}
}

func TestCyclesToNanos(t *testing.T) {
	m := New(Barcelona(1))
	if got := m.CyclesToNanos(2_200_000_000); got != 1e9 {
		t.Errorf("one second of cycles = %v ns", got)
	}
}

func TestConfigValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero-core machine accepted")
		}
	}()
	New(Config{Cores: 0})
}
