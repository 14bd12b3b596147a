package harness

import (
	"fmt"
	"sort"

	"asfstack/internal/topo"
)

// serverTopologies spans the socket axis: the paper's single-socket
// 8-core machine, the same cores split across two sockets, and a 64-core
// four-socket box.
var serverTopologies = []string{"1x8", "2x8", "4x16"}

// serverLoads are the offered-load points per core, as fractions of the
// nominal service rate: comfortable, near-saturation, and overload. The
// overload point is the one closed-loop experiments cannot express — an
// open-loop client keeps sending regardless.
var serverLoads = []float64{0.5, 0.9, 1.4}

// serverRuntimes is the E13 runtime field on the server workload.
var serverRuntimes = []string{"LLB-256", "HyTM-256", "STM", "Cohorts-turbo", "Adaptive-256"}

// Server — E16: the open-loop transactional server. One cell per
// (topology × runtime × load): each runs the vacation-style reservation
// service under a pre-drawn open-loop arrival schedule and reports
// sojourn-time quantiles (arrival → commit). The final ranking table
// orders runtimes by p99 in every cell — under overload the order departs
// from the closed-loop throughput ranking of Fig. 5/E13, which is the
// point of measuring latency open-loop.
func Server(o Options) ([]*Table, error) {
	var cells []cell
	for _, topology := range serverTopologies {
		for _, rt := range serverRuntimes {
			for _, load := range serverLoads {
				cells = append(cells, serverCell(fmt.Sprintf("server %-5s %-13s load=%.2f", topology, rt, load),
					o.serverCfg(topology, rt, load)))
			}
		}
	}
	reps, err := runCells(cells, o)

	var tables []*Table
	for _, topology := range serverTopologies {
		t := &Table{
			Title:  fmt.Sprintf("E16 — open-loop server, topology %s: sojourn-time quantiles (cycles)", topology),
			Header: []string{"runtime", "load", "p50", "p95", "p99", "p999", "max", "tx/µs", "xsock-hops"},
			Note: "sojourn = arrival → commit under a fixed open-loop schedule; " +
				"load is offered per-core load relative to the nominal service rate, " +
				"load ≥ 1 is overload and the tail reflects queue growth",
		}
		for _, rt := range serverRuntimes {
			for _, load := range serverLoads {
				c := find(reps, o.serverCfg(topology, rt, load))
				if c.Sim == nil {
					t.Add(rt, load, "ERR", "ERR", "ERR", "ERR", "ERR", "ERR", "ERR")
					continue
				}
				s := c.Sim
				soj, _ := s.Metrics.Histogram("server/sojourn_cyc")
				hops, _ := s.Metrics.Gauge("cache/xsock_hops")
				t.Add(rt, load, s.P50Cycles, s.P95Cycles, s.P99Cycles, s.P999Cycles, soj.Max, tput(s), hops.Total)
			}
		}
		tables = append(tables, t)
	}

	// Per-socket hop distribution on the largest topology at overload:
	// address interleaving should spread directory traffic evenly.
	big, overload := serverTopologies[len(serverTopologies)-1], serverLoads[len(serverLoads)-1]
	tpBig, _ := topo.Parse(big)
	ps := &Table{
		Title:  fmt.Sprintf("E16 — cross-socket hops by requesting socket (%s, load=%.2f)", big, overload),
		Header: []string{"runtime"},
	}
	for s := 0; s < tpBig.Sockets; s++ {
		ps.Header = append(ps.Header, fmt.Sprintf("sock%d", s))
	}
	for _, rt := range serverRuntimes {
		c := find(reps, o.serverCfg(big, rt, overload))
		row := []any{rt}
		if c.Sim == nil {
			for range tpBig.Sockets {
				row = append(row, "ERR")
			}
		} else {
			hops, _ := c.Sim.Metrics.Gauge("cache/xsock_hops")
			for _, n := range tpBig.PerSocket(hops.PerCore) {
				row = append(row, n)
			}
		}
		ps.Add(row...)
	}
	tables = append(tables, ps)

	// p99 ranking per cell: best-first. This is where the open-loop view
	// reorders the runtime field relative to closed-loop throughput.
	rank := &Table{
		Title:  "E16 — runtime ranking by p99 sojourn (best first)",
		Header: []string{"topology", "load", "ranking"},
		Note:   "compare against the closed-loop throughput ranking (Fig. 5/E13): under overload the orders differ",
	}
	for _, topology := range serverTopologies {
		for _, load := range serverLoads {
			type rp struct {
				rt  string
				p99 float64
			}
			rps := make([]rp, len(serverRuntimes))
			all := true
			for ri, rt := range serverRuntimes {
				c := find(reps, o.serverCfg(topology, rt, load))
				if c.Sim == nil {
					all = false
					break
				}
				rps[ri] = rp{rt: rt, p99: c.Sim.P99Cycles}
			}
			if !all {
				rank.Add(topology, load, "ERR")
				continue
			}
			sort.SliceStable(rps, func(a, b int) bool { return rps[a].p99 < rps[b].p99 })
			line := ""
			for i, r := range rps {
				if i > 0 {
					line += " < "
				}
				line += r.rt
			}
			rank.Add(topology, load, line)
		}
	}
	tables = append(tables, rank)
	return tables, err
}
