package harness

import (
	"fmt"
	"sort"

	"asfstack/internal/server"
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

// serverObs is one cell's table-facing measurements.
type serverObs struct {
	p50, p95, p99, p999 float64
	max                 uint64
	thr                 float64
	xsock               uint64
	perSock             []uint64
}

// Server — E16: the open-loop transactional server. One cell per
// (topology × runtime × load): each runs the vacation-style reservation
// service under a pre-drawn open-loop arrival schedule and reports
// sojourn-time quantiles (arrival → commit). The final ranking table
// orders runtimes by p99 in every cell — under overload the order departs
// from the closed-loop throughput ranking of Fig. 5/E13, which is the
// point of measuring latency open-loop.
func Server(o Options) ([]*Table, error) {
	nT, nR, nL := len(serverTopologies), len(serverRuntimes), len(serverLoads)
	obs := make([]slot[serverObs], nT*nR*nL)
	var cells []cell
	for ti, topology := range serverTopologies {
		tp, err := topo.Parse(topology)
		if err != nil {
			return nil, fmt.Errorf("harness: server topology %q: %w", topology, err)
		}
		for ri, rt := range serverRuntimes {
			for li, load := range serverLoads {
				dst := &obs[(ti*nR+ri)*nL+li]
				cfg := server.Config{Options: o.spec(rt, 0), Load: load, Scale: o.scale()}
				cfg.Topology = topology
				cells = append(cells, serverCell(fmt.Sprintf("server %-5s %-13s load=%.2f", topology, rt, load), cfg,
					func(r server.Result) (string, error) {
						ob := serverObs{
							p50: r.P50, p95: r.P95, p99: r.P99, p999: r.P999,
							max: r.MaxSojourn, thr: r.Throughput(), xsock: r.XSockHops,
						}
						if g, ok := r.Metrics.Gauge("cache/xsock_hops"); ok {
							ob.perSock = tp.PerSocket(g.PerCore)
						}
						dst.set(ob)
						return fmt.Sprintf("p99=%.0f cyc", r.P99), nil
					}))
			}
		}
	}
	err := runCells(cells, o)

	var tables []*Table
	for ti, topology := range serverTopologies {
		t := &Table{
			Title:  fmt.Sprintf("E16 — open-loop server, topology %s: sojourn-time quantiles (cycles)", topology),
			Header: []string{"runtime", "load", "p50", "p95", "p99", "p999", "max", "tx/µs", "xsock-hops"},
			Note: "sojourn = arrival → commit under a fixed open-loop schedule; " +
				"load is offered per-core load relative to the nominal service rate, " +
				"load ≥ 1 is overload and the tail reflects queue growth",
		}
		for ri, rt := range serverRuntimes {
			for li, load := range serverLoads {
				s := obs[(ti*nR+ri)*nL+li]
				if !s.ok {
					t.Add(rt, load, "ERR", "ERR", "ERR", "ERR", "ERR", "ERR", "ERR")
					continue
				}
				t.Add(rt, load,
					s.val.p50, s.val.p95, s.val.p99, s.val.p999,
					s.val.max, s.val.thr, s.val.xsock)
			}
		}
		tables = append(tables, t)
	}

	// Per-socket hop distribution on the largest topology at overload:
	// address interleaving should spread directory traffic evenly.
	big := len(serverTopologies) - 1
	tpBig, _ := topo.Parse(serverTopologies[big])
	ps := &Table{
		Title:  fmt.Sprintf("E16 — cross-socket hops by requesting socket (%s, load=%.2f)", serverTopologies[big], serverLoads[nL-1]),
		Header: []string{"runtime"},
	}
	for s := 0; s < tpBig.Sockets; s++ {
		ps.Header = append(ps.Header, fmt.Sprintf("sock%d", s))
	}
	for ri, rt := range serverRuntimes {
		s := obs[(big*nR+ri)*nL+nL-1]
		row := []any{rt}
		for k := 0; k < tpBig.Sockets; k++ {
			if !s.ok || k >= len(s.val.perSock) {
				row = append(row, "ERR")
			} else {
				row = append(row, s.val.perSock[k])
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
	for ti, topology := range serverTopologies {
		for li, load := range serverLoads {
			type rp struct {
				rt  string
				p99 float64
				ok  bool
			}
			rps := make([]rp, nR)
			all := true
			for ri, rt := range serverRuntimes {
				s := obs[(ti*nR+ri)*nL+li]
				rps[ri] = rp{rt: rt, p99: s.val.p99, ok: s.ok}
				all = all && s.ok
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
