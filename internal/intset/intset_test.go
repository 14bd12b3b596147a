package intset

import (
	"strings"
	"testing"

	"asfstack"
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
	cfg := Config{
		Options:   asfstack.Options{Runtime: "LLB-256", Cores: 4, Seed: 7},
		Structure: "rbtree", Range: 512, UpdatePct: 20, OpsPerThread: 300}
	a, b := mustRun(t, cfg), mustRun(t, cfg)
	if a.Cycles != b.Cycles || a.Stats != b.Stats {
		t.Fatalf("nondeterministic: %+v vs %+v", a.Stats, b.Stats)
	}
}

// TestEveryOpCommits: committed transactions equal requested operations on
// every runtime (atomic blocks never get lost or double-committed).
func TestEveryOpCommits(t *testing.T) {
	for _, rt := range []string{"LLB-8", "LLB-256", "LLB-8 w/ L1", "LLB-256 w/ L1", "STM"} {
		r := mustRun(t, Config{
			Options:   asfstack.Options{Runtime: rt, Cores: 4},
			Structure: "skiplist", Range: 256, UpdatePct: 20, OpsPerThread: 200})
		if r.Stats.Commits != 4*200 {
			t.Fatalf("%s: txs = %d, want 800", rt, r.Stats.Commits)
		}
	}
}

// TestLLB8SerialisesLongLists: the Fig. 5 left-panel effect — LLB-8's
// capacity is insufficient for a 256-element list, so nearly all update
// transactions run serially, while LLB-256 stays in hardware.
func TestLLB8SerialisesLongLists(t *testing.T) {
	small := mustRun(t, Config{
		Options:   asfstack.Options{Runtime: "LLB-8", Cores: 4},
		Structure: "linkedlist", Range: 512, UpdatePct: 20, OpsPerThread: 250})
	big := mustRun(t, Config{
		Options:   asfstack.Options{Runtime: "LLB-256", Cores: 4},
		Structure: "linkedlist", Range: 512, UpdatePct: 20, OpsPerThread: 250})
	if small.Stats.Serial < small.Stats.Commits/2 {
		t.Fatalf("LLB-8 serial=%d of %d: capacity pressure missing", small.Stats.Serial, small.Stats.Commits)
	}
	if big.Stats.Serial > big.Stats.Commits/20 {
		t.Fatalf("LLB-256 serial=%d of %d: unexpectedly serialised", big.Stats.Serial, big.Stats.Commits)
	}
	if big.Throughput() < 2*small.Throughput() {
		t.Fatalf("LLB-256 (%.2f) not clearly faster than LLB-8 (%.2f)",
			big.Throughput(), small.Throughput())
	}
}

// TestEarlyReleaseRecoversLLB8: Fig. 8 — with early release the LLB-8 list
// throughput recovers to at least several times the no-release baseline.
func TestEarlyReleaseRecoversLLB8(t *testing.T) {
	base := mustRun(t, Config{
		Options:   asfstack.Options{Runtime: "LLB-8", Cores: 4},
		Structure: "linkedlist", Range: 256, UpdatePct: 20, OpsPerThread: 250})
	er := mustRun(t, Config{
		Options:   asfstack.Options{Runtime: "LLB-8", Cores: 4},
		Structure: "linkedlist", Range: 256, UpdatePct: 20, OpsPerThread: 250, EarlyRelease: true})
	if er.Throughput() < 2*base.Throughput() {
		t.Fatalf("early release %.2f vs %.2f tx/µs: no recovery",
			er.Throughput(), base.Throughput())
	}
}

// TestHashSetScalesOnAllVariants: the Fig. 5 hash-set panels — even LLB-8
// handles the hash set in hardware (tiny write sets).
func TestHashSetScalesOnAllVariants(t *testing.T) {
	for _, rt := range []string{"LLB-8", "LLB-256", "LLB-8 w/ L1", "LLB-256 w/ L1"} {
		r := mustRun(t, Config{
			Options:   asfstack.Options{Runtime: rt, Cores: 4},
			Structure: "hashset", Range: 1024, UpdatePct: 100, OpsPerThread: 250})
		if r.Stats.Serial > r.Stats.Commits/50 {
			t.Fatalf("%s: %d/%d serial on the hash set", rt, r.Stats.Serial, r.Stats.Commits)
		}
	}
}

// TestThroughputScalesWithThreads: rbtree on LLB-256 must gain from more
// threads (the Fig. 5 scaling shape).
func TestThroughputScalesWithThreads(t *testing.T) {
	t1 := mustRun(t, Config{
		Options:   asfstack.Options{Runtime: "LLB-256", Cores: 1},
		Structure: "rbtree", Range: 8192, UpdatePct: 20, OpsPerThread: 400})
	t4 := mustRun(t, Config{
		Options:   asfstack.Options{Runtime: "LLB-256", Cores: 4},
		Structure: "rbtree", Range: 8192, UpdatePct: 20, OpsPerThread: 400})
	if t4.Throughput() < 1.8*t1.Throughput() {
		t.Fatalf("4 threads %.2f vs 1 thread %.2f tx/µs: no scaling",
			t4.Throughput(), t1.Throughput())
	}
}

// TestBreakdownAccountsAllCycles: the per-category breakdown must sum to
// (roughly) threads × duration — nothing unattributed.
func TestBreakdownAccountsAllCycles(t *testing.T) {
	r := mustRun(t, Config{
		Options:   asfstack.Options{Runtime: "LLB-256", Cores: 2},
		Structure: "rbtree", Range: 512, UpdatePct: 20, OpsPerThread: 300})
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
	for _, tc := range []struct {
		mutate func(*Config)
		want   string
	}{
		{func(c *Config) { c.Structure = "btree" }, "unknown structure"},
		{func(c *Config) { c.Range = 0 }, "key range"},
		{func(c *Config) { c.UpdatePct = -1 }, "update percentage -1"},
		{func(c *Config) { c.UpdatePct = 101 }, "update percentage 101"},
		{func(c *Config) { c.UpdatePct = 150 }, "update percentage 150"},
		{func(c *Config) { c.OpsPerThread = -5 }, "operation count -5"},
	} {
		cfg := Config{Options: asfstack.Options{Runtime: "STM", Cores: 1}, Structure: "rbtree", Range: 64, OpsPerThread: 1}
		tc.mutate(&cfg)
		if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("err = %v, want %q", err, tc.want)
		}
	}
}

// TestRunRejectsCoreCount: a core count outside 1..sim.MaxCores, given
// directly or through the topology, and an unknown runtime are errors that
// reach the caller rather than panics.
func TestRunRejectsCoreCount(t *testing.T) {
	for _, tc := range []struct {
		runtime  string
		cores    int
		topology string
		want     string
	}{
		{"LLB-256", 0, "", "out of range"},
		{"LLB-256", 65, "", "out of range"},
		{"LLB-256", 0, "2x64", "out of range"},
		{"Bogus", 2, "", "unknown runtime"},
	} {
		cfg := Config{
			Options:   asfstack.Options{Runtime: tc.runtime, Cores: tc.cores, Topology: tc.topology},
			Structure: "rbtree", Range: 64, OpsPerThread: 1}
		if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s cores %d topology %q: err = %v, want %q", tc.runtime, tc.cores, tc.topology, err, tc.want)
		}
	}
}
