package intset

import (
	"strings"
	"testing"
)

// mustRun executes a configuration that the test requires to be valid.
func mustRun(t *testing.T, cfg Config) Result {
	t.Helper()
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestRunIsDeterministic: identical configurations give identical results.
func TestRunIsDeterministic(t *testing.T) {
	cfg := Config{Structure: "rbtree", Runtime: "LLB-256", Threads: 4,
		Range: 512, UpdatePct: 20, OpsPerThread: 300, Seed: 7}
	a, b := mustRun(t, cfg), mustRun(t, cfg)
	if a.Cycles != b.Cycles || a.Txs != b.Txs || a.Stats != b.Stats {
		t.Fatalf("nondeterministic: %+v vs %+v", a.Stats, b.Stats)
	}
}

// TestEveryOpCommits: committed transactions equal requested operations on
// every runtime (atomic blocks never get lost or double-committed).
func TestEveryOpCommits(t *testing.T) {
	for _, rt := range []string{"LLB-8", "LLB-256", "LLB-8 w/ L1", "LLB-256 w/ L1", "STM"} {
		r := mustRun(t, Config{Structure: "skiplist", Runtime: rt, Threads: 4,
			Range: 256, UpdatePct: 20, OpsPerThread: 200})
		if r.Txs != 4*200 {
			t.Fatalf("%s: txs = %d, want 800", rt, r.Txs)
		}
	}
}

// TestLLB8SerialisesLongLists: the Fig. 5 left-panel effect — LLB-8's
// capacity is insufficient for a 256-element list, so nearly all update
// transactions run serially, while LLB-256 stays in hardware.
func TestLLB8SerialisesLongLists(t *testing.T) {
	small := mustRun(t, Config{Structure: "linkedlist", Runtime: "LLB-8", Threads: 4,
		Range: 512, UpdatePct: 20, OpsPerThread: 250})
	big := mustRun(t, Config{Structure: "linkedlist", Runtime: "LLB-256", Threads: 4,
		Range: 512, UpdatePct: 20, OpsPerThread: 250})
	if small.Stats.Serial < small.Txs/2 {
		t.Fatalf("LLB-8 serial=%d of %d: capacity pressure missing", small.Stats.Serial, small.Txs)
	}
	if big.Stats.Serial > big.Txs/20 {
		t.Fatalf("LLB-256 serial=%d of %d: unexpectedly serialised", big.Stats.Serial, big.Txs)
	}
	if big.Throughput() < 2*small.Throughput() {
		t.Fatalf("LLB-256 (%.2f) not clearly faster than LLB-8 (%.2f)",
			big.Throughput(), small.Throughput())
	}
}

// TestEarlyReleaseRecoversLLB8: Fig. 8 — with early release the LLB-8 list
// throughput recovers to at least several times the no-release baseline.
func TestEarlyReleaseRecoversLLB8(t *testing.T) {
	base := mustRun(t, Config{Structure: "linkedlist", Runtime: "LLB-8", Threads: 4,
		Range: 256, UpdatePct: 20, OpsPerThread: 250})
	er := mustRun(t, Config{Structure: "linkedlist", Runtime: "LLB-8", Threads: 4,
		Range: 256, UpdatePct: 20, OpsPerThread: 250, EarlyRelease: true})
	if er.Throughput() < 2*base.Throughput() {
		t.Fatalf("early release %.2f vs %.2f tx/µs: no recovery",
			er.Throughput(), base.Throughput())
	}
}

// TestHashSetScalesOnAllVariants: the Fig. 5 hash-set panels — even LLB-8
// handles the hash set in hardware (tiny write sets).
func TestHashSetScalesOnAllVariants(t *testing.T) {
	for _, rt := range []string{"LLB-8", "LLB-256", "LLB-8 w/ L1", "LLB-256 w/ L1"} {
		r := mustRun(t, Config{Structure: "hashset", Runtime: rt, Threads: 4,
			Range: 1024, UpdatePct: 100, OpsPerThread: 250})
		if r.Stats.Serial > r.Txs/50 {
			t.Fatalf("%s: %d/%d serial on the hash set", rt, r.Stats.Serial, r.Txs)
		}
	}
}

// TestThroughputScalesWithThreads: rbtree on LLB-256 must gain from more
// threads (the Fig. 5 scaling shape).
func TestThroughputScalesWithThreads(t *testing.T) {
	t1 := mustRun(t, Config{Structure: "rbtree", Runtime: "LLB-256", Threads: 1,
		Range: 8192, UpdatePct: 20, OpsPerThread: 400})
	t4 := mustRun(t, Config{Structure: "rbtree", Runtime: "LLB-256", Threads: 4,
		Range: 8192, UpdatePct: 20, OpsPerThread: 400})
	if t4.Throughput() < 1.8*t1.Throughput() {
		t.Fatalf("4 threads %.2f vs 1 thread %.2f tx/µs: no scaling",
			t4.Throughput(), t1.Throughput())
	}
}

// TestBreakdownAccountsAllCycles: the per-category breakdown must sum to
// (roughly) threads × duration — nothing unattributed.
func TestBreakdownAccountsAllCycles(t *testing.T) {
	r := mustRun(t, Config{Structure: "rbtree", Runtime: "LLB-256", Threads: 2,
		Range: 512, UpdatePct: 20, OpsPerThread: 300})
	total := r.Breakdown.Total()
	upper := uint64(2) * r.Cycles
	if total == 0 || total > upper {
		t.Fatalf("breakdown total %d vs %d thread-cycles", total, upper)
	}
	if total < upper*8/10 {
		t.Fatalf("breakdown total %d misses >20%% of %d thread-cycles", total, upper)
	}
}

// TestRunRejectsBadConfig: configuration mistakes are reported as errors,
// not panics, so sweep harnesses can fail one cell and keep going.
func TestRunRejectsBadConfig(t *testing.T) {
	if _, err := Run(Config{Structure: "btree", Runtime: "STM", Range: 64}); err == nil {
		t.Fatal("unknown structure accepted")
	}
	if _, err := Run(Config{Structure: "rbtree", Runtime: "STM"}); err == nil {
		t.Fatal("zero key range accepted")
	}
}

// TestRunRejectsCoreCount: a thread count outside 1..sim.MaxCores, given
// directly or through the topology, is an error rather than a panic.
func TestRunRejectsCoreCount(t *testing.T) {
	for _, tc := range []struct {
		threads  int
		topology string
	}{{0, ""}, {65, ""}, {0, "2x64"}} {
		cfg := Config{Structure: "rbtree", Runtime: "LLB-256", Range: 64, OpsPerThread: 1,
			Threads: tc.threads, Topology: tc.topology}
		if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), "out of range") {
			t.Errorf("threads %d topology %q: err = %v, want out-of-range error", tc.threads, tc.topology, err)
		}
	}
}
