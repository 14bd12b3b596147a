package stamp

import (
	"math"
	"strings"
	"testing"

	"asfstack"
	"asfstack/internal/sim"
)

// TestDeterministicRuns: identical configs produce identical results.
func TestDeterministicRuns(t *testing.T) {
	cfg := Config{Options: asfstack.Options{Runtime: "LLB-256", Cores: 4}, App: "intruder", Scale: 0.25}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Cycles != b.Cycles || a.Stats != b.Stats {
		t.Fatalf("nondeterministic: %d/%d cycles", a.Cycles, b.Cycles)
	}
}

// TestSeedZeroIsARealSeed: an explicit seed 0 must run as seed 0, not be
// silently promoted to the default 42, and distinct seeds must produce
// distinct executions (genome's input generation included, which once used
// a seed-independent hardcoded source).
func TestSeedZeroIsARealSeed(t *testing.T) {
	base := Config{Options: asfstack.Options{Runtime: "LLB-256", Cores: 2}, App: "genome", Scale: 0.125}

	zero := base
	zero.Seed, zero.SeedSet = 0, true
	def := base // Seed 0 without SeedSet: the default (42)
	other := base
	other.Seed = 7

	rz, err := Run(zero)
	if err != nil {
		t.Fatal(err)
	}
	rd, err := Run(def)
	if err != nil {
		t.Fatal(err)
	}
	ro, err := Run(other)
	if err != nil {
		t.Fatal(err)
	}
	if rz.Cycles == rd.Cycles && rz.Stats == rd.Stats {
		t.Errorf("seed 0 ran identically to the default seed: 0 is still aliased to 42")
	}
	if ro.Cycles == rd.Cycles && ro.Stats == rd.Stats {
		t.Errorf("seed 7 ran identically to the default seed: the seed does not reach the workload")
	}
	// And an explicit 42 must be exactly the default.
	forty := base
	forty.Seed = 42
	rf, err := Run(forty)
	if err != nil {
		t.Fatal(err)
	}
	if rf.Cycles != rd.Cycles || rf.Stats != rd.Stats {
		t.Errorf("explicit seed 42 differs from the default: %d vs %d cycles", rf.Cycles, rd.Cycles)
	}
}

// TestAllAppsValidateOnAllVariants runs every app on every ASF variant
// (small scale) — the validation inside Run is the assertion.
func TestAllAppsValidateOnAllVariants(t *testing.T) {
	for _, app := range Apps {
		for _, rt := range []string{"LLB-8", "LLB-8 w/ L1", "LLB-256 w/ L1"} {
			if _, err := Run(Config{Options: asfstack.Options{Runtime: rt, Cores: 2}, App: app, Scale: 0.125}); err != nil {
				t.Errorf("%s/%s: %v", app, rt, err)
			}
		}
	}
}

// TestSequentialBaseline: every app runs uninstrumented on one thread.
func TestSequentialBaseline(t *testing.T) {
	for _, app := range Apps {
		r, err := Run(Config{Options: asfstack.Options{Runtime: "Sequential", Cores: 1}, App: app, Scale: 0.125})
		if err != nil {
			t.Fatalf("%s: %v", app, err)
		}
		if r.Cycles == 0 {
			t.Fatalf("%s: no simulated time", app)
		}
		if r.Stats.TotalAborts() != 0 {
			t.Fatalf("%s: sequential run aborted", app)
		}
	}
}

// TestScalableAppsScale: genome and ssca2 must run faster on 4 threads
// than on 1 with LLB-256 (the Fig. 4 scaling shape).
func TestScalableAppsScale(t *testing.T) {
	for _, app := range []string{"genome", "ssca2"} {
		r1, err := Run(Config{Options: asfstack.Options{Runtime: "LLB-256", Cores: 1}, App: app, Scale: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		r4, err := Run(Config{Options: asfstack.Options{Runtime: "LLB-256", Cores: 4}, App: app, Scale: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		if r4.Millis() > r1.Millis()*0.7 {
			t.Errorf("%s: 4 threads %.3fms vs 1 thread %.3fms — no scaling",
				app, r4.Millis(), r1.Millis())
		}
	}
}

// TestLabyrinthMostlySerialOnASF: the huge read/write sets must push
// labyrinth's routing transactions into serial-irrevocable mode (Fig. 4's
// non-scaling panel).
func TestLabyrinthMostlySerialOnASF(t *testing.T) {
	r, err := Run(Config{Options: asfstack.Options{Runtime: "LLB-256", Cores: 4}, App: "labyrinth", Scale: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Each route is one transaction among ~3 per route; at least the
	// routing transactions should be serial.
	if r.Stats.Serial < 10 {
		t.Fatalf("labyrinth serial commits = %d: capacity pressure missing", r.Stats.Serial)
	}
	if r.Stats.Aborts[sim.AbortCapacity] == 0 {
		t.Fatal("labyrinth produced no capacity aborts")
	}
}

// TestIntruderContention: intruder's shared queues must produce a
// substantial abort rate at 4+ threads (Fig. 6's most contended app).
func TestIntruderContention(t *testing.T) {
	r, err := Run(Config{Options: asfstack.Options{Runtime: "LLB-256", Cores: 4}, App: "intruder", Scale: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	rate := float64(r.Stats.Aborts[sim.AbortContention]) / float64(r.Stats.Attempts())
	if rate < 0.05 {
		t.Fatalf("intruder contention abort rate %.1f%%: too tame", rate*100)
	}
}

// TestASFBeatsSTMOnStamp: at 4 threads, ASF (LLB-256) must beat the STM on
// every application (the paper's headline).
func TestASFBeatsSTMOnStamp(t *testing.T) {
	for _, app := range Apps {
		a, err := Run(Config{Options: asfstack.Options{Runtime: "LLB-256", Cores: 4}, App: app, Scale: 0.25})
		if err != nil {
			t.Fatal(err)
		}
		s, err := Run(Config{Options: asfstack.Options{Runtime: "STM", Cores: 4}, App: app, Scale: 0.25})
		if err != nil {
			t.Fatal(err)
		}
		if a.Millis() >= s.Millis() {
			t.Errorf("%s: ASF %.3fms not faster than STM %.3fms", app, a.Millis(), s.Millis())
		}
	}
}

// TestUnknownAppRejected: configuration errors surface as errors.
func TestUnknownAppRejected(t *testing.T) {
	if _, err := Run(Config{Options: asfstack.Options{Runtime: "LLB-256", Cores: 1}, App: "bayes"}); err == nil {
		t.Fatal("excluded app accepted")
	}
}

// TestRunRejectsBadConfig: a negative or non-finite scale is an error, not
// a run at some other size.
func TestRunRejectsBadConfig(t *testing.T) {
	for _, scale := range []float64{-1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		cfg := Config{Options: asfstack.Options{Runtime: "LLB-256", Cores: 1}, App: "genome", Scale: scale}
		if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), "scale") {
			t.Errorf("scale %v: err = %v, want a scale error", scale, err)
		}
	}
}

// TestRunRejectsCoreCount: a thread count outside 1..sim.MaxCores, given
// directly or through the topology, is an error rather than a panic.
func TestRunRejectsCoreCount(t *testing.T) {
	for _, tc := range []struct {
		threads  int
		topology string
	}{{0, ""}, {65, ""}, {0, "2x64"}} {
		cfg := Config{
			Options: asfstack.Options{Runtime: "LLB-256", Cores: tc.threads, Topology: tc.topology},
			App:     "genome", Scale: 0.05}
		if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), "out of range") {
			t.Errorf("threads %d topology %q: err = %v, want out-of-range error", tc.threads, tc.topology, err)
		}
	}
}
