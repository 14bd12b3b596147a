package stm_test

import (
	"testing"

	"asfstack"
	"asfstack/internal/mem"
	"asfstack/internal/sim"
	"asfstack/internal/tm"
)

// TestBalanceConservedWithoutSerialFallback: concurrent transfers between
// accounts conserve the total balance while the STM never falls back to
// serial-irrevocable mode (no transaction reaches the retry bound), so
// every commit goes through optimistic validation alone.
func TestBalanceConservedWithoutSerialFallback(t *testing.T) {
	const threads, accounts, transfers, initBal = 4, 16, 300, 1000
	s := asfstack.New(asfstack.Options{Cores: threads, Runtime: "STM"})
	base := s.AllocShared(accounts * mem.LineSize)
	acct := func(i int) mem.Addr { return base + mem.Addr(i*mem.LineSize) }
	for i := 0; i < accounts; i++ {
		s.M.Mem.Store(acct(i), initBal)
	}
	s.Parallel(threads, func(c *sim.CPU) {
		rng := c.Rand()
		for i := 0; i < transfers; i++ {
			from, to := rng.Intn(accounts), rng.Intn(accounts)
			amt := mem.Word(rng.Intn(50))
			s.Atomic(c, func(tx tm.Tx) {
				f := tx.Load(acct(from))
				tx.Store(acct(from), f-amt)
				tx.Store(acct(to), tx.Load(acct(to))+amt)
			})
		}
	})
	var sum mem.Word
	for i := 0; i < accounts; i++ {
		sum += s.M.Mem.Load(acct(i))
	}
	st := s.TotalStats()
	t.Logf("commits=%d stmAborts=%d serial=%d", st.Commits, st.STMAborts, st.Serial)
	if st.Serial != 0 {
		t.Fatalf("%d serial-irrevocable commits, want optimistic commits only", st.Serial)
	}
	if sum != accounts*initBal {
		t.Fatalf("total = %d, want %d", sum, accounts*initBal)
	}
}
