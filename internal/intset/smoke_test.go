package intset

import (
	"testing"

	"asfstack"
)

func TestSmoke(t *testing.T) {
	for _, rt := range []string{"LLB-8", "LLB-256", "STM", "Sequential"} {
		threads := 4
		if rt == "Sequential" {
			threads = 1
		}
		for _, st := range Structures {
			r := mustRun(t, Config{
				Options:   asfstack.Options{Runtime: rt, Cores: threads},
				Structure: st, Range: 256, UpdatePct: 20, OpsPerThread: 300})
			t.Logf("%-10s %-12s thr=%d tx/us=%.2f serial=%d aborts=%d stmAborts=%d",
				st, rt, threads, r.Throughput(), r.Stats.Serial, r.Stats.TotalAborts(), r.Stats.STMAborts)
			if r.Stats.Commits != uint64(threads*300) {
				t.Fatalf("%s/%s: txs=%d want %d", st, rt, r.Stats.Commits, threads*300)
			}
		}
	}
}
