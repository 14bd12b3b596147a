package server

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"asfstack"
)

// TestQueueAllocs pins the steady-state session path: once a queue is
// built, push and pop must not allocate (the CI alloc gate runs this).
func TestQueueAllocs(t *testing.T) {
	q := newReqQueue(64)
	r := request{arrival: 123, kind: opReserve, cust: 7, nq: 2}
	if n := testing.AllocsPerRun(1000, func() {
		q.push(r)
		q.push(r)
		q.pop()
		q.pop()
	}); n != 0 {
		t.Fatalf("queue push/pop allocates %v allocs/op, want 0", n)
	}
}

func TestQueueFIFO(t *testing.T) {
	q := newReqQueue(3)
	for i := 0; i < 3; i++ {
		if !q.push(request{arrival: uint64(i)}) {
			t.Fatalf("push %d failed", i)
		}
	}
	if q.push(request{}) {
		t.Fatal("push into a full ring succeeded")
	}
	for i := 0; i < 3; i++ {
		r, ok := q.pop()
		if !ok || r.arrival != uint64(i) {
			t.Fatalf("pop %d = (%v, %v), want arrival %d", i, r.arrival, ok, i)
		}
	}
	if _, ok := q.pop(); ok {
		t.Fatal("pop from an empty ring succeeded")
	}
	// Wrap-around keeps order.
	q.push(request{arrival: 10})
	q.push(request{arrival: 11})
	q.pop()
	q.push(request{arrival: 12})
	for want := uint64(11); want <= 12; want++ {
		if r, _ := q.pop(); r.arrival != want {
			t.Fatalf("wrapped pop = %d, want %d", r.arrival, want)
		}
	}
}

// TestGenerateDeterministic: the open-loop schedule is a pure function of
// the config and the core — regenerating yields the identical stream, a
// core's stream does not depend on the cores generated before it on the
// same world, and arrivals are strictly non-decreasing.
func TestGenerateDeterministic(t *testing.T) {
	newWorld := func() *world {
		return &world{cfg: Config{Options: asfstack.Options{Seed: 42}, Load: 0.9, RequestsPerCore: 200}, items: 64, customers: 32}
	}
	w := newWorld()
	a, b := w.generate(3), w.generate(3)
	if !reflect.DeepEqual(a.buf, b.buf) {
		t.Fatal("regenerated schedule differs")
	}
	other := w.generate(4)
	if reflect.DeepEqual(a.buf, other.buf) {
		t.Fatal("different cores drew identical schedules")
	}
	if fresh := newWorld().generate(4); !reflect.DeepEqual(other.buf, fresh.buf) {
		t.Fatal("core 4's schedule after core 3's differs from a fresh world's")
	}
	var prev uint64
	hot := 0
	for a.len() > 0 {
		r, _ := a.pop()
		if r.arrival < prev {
			t.Fatalf("arrivals not monotone: %d after %d", r.arrival, prev)
		}
		prev = r.arrival
		if r.kind == opReserve && r.items[0] < 8 {
			hot++
		}
	}
	if hot == 0 {
		t.Fatal("Zipf skew produced no hot-head keys at all")
	}
}

func smallConfig(runtime string) Config {
	return Config{
		Options:         asfstack.Options{Runtime: runtime, Cores: 4},
		RequestsPerCore: 12,
		Load:            0.9,
		Scale:           0.05,
	}
}

// TestRunSmoke: a small run completes, validates, and reports ordered
// quantiles within the observed range.
func TestRunSmoke(t *testing.T) {
	r, err := Run(smallConfig("LLB-256"))
	if err != nil {
		t.Fatal(err)
	}
	if r.Requests != 4*12 {
		t.Fatalf("Requests = %d, want %d", r.Requests, 4*12)
	}
	if r.Stats.Commits == 0 {
		t.Fatal("no commits")
	}
	qs := []float64{r.P50, r.P95, r.P99, r.P999}
	for i := 1; i < len(qs); i++ {
		if qs[i] < qs[i-1] {
			t.Fatalf("quantiles not monotone: %v", qs)
		}
	}
	if m := maxSojourn(r); r.P50 <= 0 || r.P999 > float64(m) {
		t.Fatalf("quantiles outside (0, max=%d]: %v", m, qs)
	}
	if h := xsockHops(r); h != 0 {
		t.Fatalf("single-socket run counted %d cross-socket hops", h)
	}
}

// maxSojourn is the longest sojourn the run's server/sojourn_cyc
// histogram recorded.
func maxSojourn(r Result) uint64 {
	hs, _ := r.Metrics.Histogram("server/sojourn_cyc")
	return hs.Max
}

// xsockHops is the machine total of the run's cache/xsock_hops gauge.
func xsockHops(r Result) uint64 {
	g, _ := r.Metrics.Gauge("cache/xsock_hops")
	return g.Total
}

// simFingerprint is the deterministic part of a Result.
type simFingerprint struct {
	Cycles              uint64
	Requests            uint64
	P50, P95, P99, P999 float64
	Max                 uint64
	XSock               uint64
	Commits             uint64
	Aborts              uint64
}

func fingerprint(r Result) simFingerprint {
	var aborts uint64
	for _, a := range r.Stats.Aborts {
		aborts += a
	}
	return simFingerprint{
		Cycles: r.Cycles, Requests: r.Requests,
		P50: r.P50, P95: r.P95, P99: r.P99, P999: r.P999,
		Max: maxSojourn(r), XSock: xsockHops(r),
		Commits: r.Stats.Commits, Aborts: aborts,
	}
}

// TestRunSameSeedReplay: two runs of one configuration and seed produce
// byte-identical simulated results for the open-loop workload, including
// on a multi-socket topology.
func TestRunSameSeedReplay(t *testing.T) {
	for _, topology := range []string{"", "2x2"} {
		cfg := smallConfig("LLB-256")
		if topology != "" {
			cfg.Cores = 0
			cfg.Topology = topology
		}
		first, err := Run(cfg)
		if err != nil {
			t.Fatalf("topology %q: %v", topology, err)
		}
		again, err := Run(cfg)
		if err != nil {
			t.Fatalf("topology %q replay: %v", topology, err)
		}
		if f1, f2 := fingerprint(first), fingerprint(again); f1 != f2 {
			t.Fatalf("topology %q: same-seed runs diverge:\nfirst %+v\nagain %+v", topology, f1, f2)
		}
	}
}

// TestRunRejectsBadConfig: a negative or non-finite load or scale and a
// negative request count are errors; zero keeps meaning the default.
func TestRunRejectsBadConfig(t *testing.T) {
	for _, tc := range []struct {
		mutate func(*Config)
		want   string
	}{
		{func(c *Config) { c.Load = -1 }, "load -1"},
		{func(c *Config) { c.Load = math.NaN() }, "load NaN"},
		{func(c *Config) { c.Load = math.Inf(1) }, "load +Inf"},
		{func(c *Config) { c.Scale = -1 }, "scale -1"},
		{func(c *Config) { c.Scale = math.NaN() }, "scale NaN"},
		{func(c *Config) { c.RequestsPerCore = -3 }, "requests per core -3"},
	} {
		cfg := smallConfig("LLB-256")
		tc.mutate(&cfg)
		if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("err = %v, want %q", err, tc.want)
		}
	}
	cfg := smallConfig("LLB-256")
	cfg.Load = 0
	zero, err := Run(cfg)
	if err != nil {
		t.Fatalf("zero load: %v", err)
	}
	cfg.Load = 0.7
	def, err := Run(cfg)
	if err != nil {
		t.Fatalf("load 0.7: %v", err)
	}
	if zero.Cycles != def.Cycles || zero.Stats != def.Stats {
		t.Fatalf("zero load ran %d cycles, stats %+v; load 0.7 ran %d, %+v; want the default 0.7",
			zero.Cycles, zero.Stats, def.Cycles, def.Stats)
	}
}

// TestRunRejectsCoreCount: a thread count outside 1..sim.MaxCores, given
// directly or through the topology, is an error rather than a panic.
func TestRunRejectsCoreCount(t *testing.T) {
	for _, tc := range []struct {
		threads  int
		topology string
	}{{0, ""}, {65, ""}, {0, "2x64"}} {
		cfg := smallConfig("LLB-256")
		cfg.Cores, cfg.Topology = tc.threads, tc.topology
		if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), "out of range") {
			t.Errorf("threads %d topology %q: err = %v, want out-of-range error", tc.threads, tc.topology, err)
		}
	}
}

// TestRunTopologyCharges: a multi-socket run pays cross-socket hops; the
// same workload single-socket does not, and is cheaper.
func TestRunTopologyCharges(t *testing.T) {
	cfg := smallConfig("LLB-256")
	cfg.Cores = 0
	cfg.Topology = "2x2"
	multi, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if xsockHops(multi) == 0 {
		t.Fatal("2x2 run recorded zero cross-socket hops")
	}
	if hs, ok := multi.Metrics.Histogram("server/sojourn_cyc"); !ok || hs.Count != multi.Requests {
		t.Fatalf("sojourn histogram count = %v, want one observation per request (%d)",
			hs.Count, multi.Requests)
	}
}

// TestRunCommitsEqualRequests: every request commits exactly one
// transaction on each runtime of the E16 field, so the commit rate
// RunResult.Throughput reports is the server's request rate.
func TestRunCommitsEqualRequests(t *testing.T) {
	for _, rt := range []string{"LLB-256", "HyTM-256", "STM", "Cohorts-turbo", "Adaptive-256"} {
		cfg := smallConfig(rt)
		cfg.Cores = 0
		cfg.Topology = "2x2"
		r, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", rt, err)
		}
		if r.Stats.Commits != r.Requests {
			t.Errorf("%s: %d commits for %d requests", rt, r.Stats.Commits, r.Requests)
		}
	}
}

// TestRunOverloadTail: pushing Load well past saturation must inflate the
// tail relative to a lightly-loaded run of the same server.
func TestRunOverloadTail(t *testing.T) {
	light := smallConfig("LLB-256")
	light.Load = 0.3
	lr, err := Run(light)
	if err != nil {
		t.Fatal(err)
	}
	heavy := smallConfig("LLB-256")
	heavy.Load = 8.0 // deep overload: arrivals 8× the nominal service rate
	hr, err := Run(heavy)
	if err != nil {
		t.Fatal(err)
	}
	if hr.P99 <= lr.P99 {
		t.Fatalf("overload p99 (%.0f) not above light-load p99 (%.0f)", hr.P99, lr.P99)
	}
}
