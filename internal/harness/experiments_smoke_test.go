package harness

import (
	"strconv"
	"strings"
	"testing"
)

// TestFig4Fig5Fig6SmokeTiny executes the three big sweeps at a very small
// scale: every cell must be produced and be positive, and the qualitative
// STM-vs-ASF ordering must hold on at least one representative app.
func TestFig4Fig5Fig6SmokeTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("sweeps are slow")
	}
	fig4, err := Fig4(Options{Scale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if len(fig4) != 8 {
		t.Fatalf("fig4 tables = %d", len(fig4))
	}
	for _, tab := range fig4 {
		if len(tab.Rows) != 6 { // 4 ASF + STM + Sequential
			t.Fatalf("%s: rows = %d", tab.Title, len(tab.Rows))
		}
		for _, row := range tab.Rows {
			for col := 1; col < len(row); col++ {
				if row[col] == "-" {
					continue
				}
				v, err := strconv.ParseFloat(row[col], 64)
				if err != nil || v <= 0 {
					t.Fatalf("%s %s: bad cell %q", tab.Title, row[0], row[col])
				}
			}
		}
	}
	// genome is the first table; STM (row 4) slower than LLB-256 (row 1)
	// at one thread (column 1).
	g := fig4[0]
	asf := cellVal(t, g, 1, 1)
	stm := cellVal(t, g, 4, 1)
	if stm <= asf {
		t.Fatalf("genome: STM %.3f not slower than ASF %.3f", stm, asf)
	}

	fig5, err := Fig5(Options{Scale: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if len(fig5) != 8 {
		t.Fatalf("fig5 tables = %d", len(fig5))
	}
	for _, tab := range fig5 {
		for _, row := range tab.Rows {
			for col := 1; col < len(row); col++ {
				if v := cellVal(t, tab, 0, col); v <= 0 {
					t.Fatalf("%s: nonpositive throughput %v", tab.Title, v)
				}
				_ = row
			}
		}
	}

	fig6, err := Fig6(Options{Scale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if len(fig6) != 8 {
		t.Fatalf("fig6 tables = %d", len(fig6))
	}
	for _, tab := range fig6 {
		for _, row := range tab.Rows {
			tot, err := strconv.ParseFloat(row[len(row)-1], 64)
			if err != nil || tot < 0 || tot > 100 {
				t.Fatalf("%s: abort total %q out of range", tab.Title, row[len(row)-1])
			}
		}
	}
}

// TestRunDispatch exercises the name dispatcher for each experiment.
func TestRunDispatch(t *testing.T) {
	if testing.Short() {
		t.Skip("sweeps are slow")
	}
	for _, name := range []string{"fig3", "table1"} {
		rep, err := RunReport(name, Options{Scale: 0.1})
		if err != nil || len(rep.Tables) == 0 {
			t.Fatalf("RunReport(%s): %v, %+v", name, err, rep)
		}
	}
}

// TestHybridSmokeTiny executes E11 at a very small scale: every table must
// be produced, the intset throughput cells must be positive, and the hybrid
// runtime must record concurrent software commits (the subsystem's whole
// point) with zero serial entries on the capacity-bound intset cells.
func TestHybridSmokeTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("sweeps are slow")
	}
	rep, err := RunReport("hybrid", Options{Scale: 0.05, Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	// 2 apps × 2 runtimes × 4 threads + 6 intset cells × 2 runtimes.
	if want := 2*2*4 + 6*2; len(rep.Cells) != want {
		t.Fatalf("cells = %d, want %d", len(rep.Cells), want)
	}
	// 2 STAMP tables + 2 intset tables + summary + abort attribution.
	if len(rep.Tables) != 6 {
		t.Fatalf("tables = %d, want 6", len(rep.Tables))
	}
	swSeen := false
	for _, c := range rep.Cells {
		if c.Err != "" {
			t.Fatalf("cell %q failed: %s", c.Label, c.Err)
		}
		st := c.Sim.Stats
		if strings.Contains(c.Label, "HyTM") {
			if st.SWCommits > 0 {
				swSeen = true
			}
			if g, ok := c.Sim.Metrics.Gauge("tm/sw_commits"); !ok || g.Total != st.SWCommits {
				t.Fatalf("cell %q: tm/sw_commits gauge %+v disagrees with stats %d", c.Label, g, st.SWCommits)
			}
			if strings.Contains(c.Label, "linkedlist") || strings.Contains(c.Label, "rbtree") {
				if st.Serial != 0 {
					t.Fatalf("cell %q: %d serial entries on the hybrid path", c.Label, st.Serial)
				}
				if st.SWCommits == 0 {
					t.Fatalf("cell %q: capacity-bound cell committed nothing in software", c.Label)
				}
			}
		} else if st.SWCommits != 0 || st.SeqAborts != 0 {
			t.Fatalf("cell %q: non-hybrid runtime reported hybrid counters: %+v", c.Label, st)
		}
	}
	if !swSeen {
		t.Fatal("no cell recorded concurrent software commits")
	}
}

// TestServerSmokeTiny executes E16 at a very small scale: every cell must
// complete, the latency quantiles must be populated, monotone, and present
// in the report's sim sections, and the multi-socket cells must record
// cross-socket directory traffic.
func TestServerSmokeTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("sweeps are slow")
	}
	rep, err := RunReport("server", Options{Scale: 0.02, Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	nCells := len(serverTopologies) * len(serverRuntimes) * len(serverLoads)
	if len(rep.Cells) != nCells {
		t.Fatalf("cells = %d, want %d", len(rep.Cells), nCells)
	}
	// One quantile table per topology + per-socket hops + ranking + abort
	// attribution.
	if want := len(serverTopologies) + 3; len(rep.Tables) != want {
		t.Fatalf("tables = %d, want %d", len(rep.Tables), want)
	}
	xsockSeen := false
	for _, c := range rep.Cells {
		if c.Err != "" {
			t.Fatalf("cell %q failed: %s", c.Label, c.Err)
		}
		s := c.Sim
		if !(s.P50Cycles > 0 && s.P50Cycles <= s.P95Cycles &&
			s.P95Cycles <= s.P99Cycles && s.P99Cycles <= s.P999Cycles) {
			t.Fatalf("cell %q: bad quantiles p50=%v p95=%v p99=%v p999=%v",
				c.Label, s.P50Cycles, s.P95Cycles, s.P99Cycles, s.P999Cycles)
		}
		g, _ := s.Metrics.Gauge("cache/xsock_hops")
		if strings.Contains(c.Label, "1x8") {
			if g.Total != 0 {
				t.Fatalf("cell %q: single-socket cell recorded %d cross-socket hops", c.Label, g.Total)
			}
		} else if g.Total > 0 {
			xsockSeen = true
		}
	}
	if !xsockSeen {
		t.Fatal("no multi-socket cell recorded cross-socket hops")
	}
}
