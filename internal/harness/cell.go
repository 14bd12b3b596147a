package harness

import (
	"flag"
	"fmt"
	"strings"

	"asfstack"
	"asfstack/internal/intset"
	"asfstack/internal/server"
	"asfstack/internal/sim"
	"asfstack/internal/stamp"
)

// RunCell runs the one cell a spec names and reports it as an experiment
// named "cell": the cell's measured phase, its cycles by category and its
// abort attribution. A spec is a workload word followed by key=value fields
// that set the workload's config: runtime, cores, topology and seed for
// every workload, structure, range, update, ops and early-release for
// intset, app and scale for stamp, and load, requests and scale for
// server; e.g. "server runtime=LLB-256 topology=2x4 load=1.4 scale=0.1". A
// word without "=" continues the previous value, so "runtime=LLB-8 w/ L1"
// names one runtime, and a key left out keeps the workload's default. The
// cell's label is the canonical spec: the workload, then the set keys in
// name order. A nil report means the spec did not parse; otherwise a
// non-nil error means the cell failed, as in RunReport.
func RunCell(spec string, o Options) (*ExperimentReport, error) {
	c, err := parseCell(spec, o)
	if err != nil {
		return nil, err
	}
	return runReport("cell", func(o Options) ([]*Table, error) {
		reps, err := runCells([]cell{c}, o)
		return cellTables(reps[0]), err
	}, o)
}

// parseCell builds the cell a spec names (see RunCell), with o's trace and
// profile switches. A flag set binds each key to its config field.
func parseCell(spec string, o Options) (cell, error) {
	words := strings.Fields(spec)
	if len(words) == 0 {
		return cell{}, fmt.Errorf("harness: empty cell spec")
	}
	workload := words[0]
	fs := flag.NewFlagSet(workload, flag.ContinueOnError)
	var m *asfstack.Options
	var build func(label string) cell
	switch workload {
	case "intset":
		cfg := new(intset.Config)
		fs.StringVar(&cfg.Structure, "structure", "", "")
		fs.Uint64Var(&cfg.Range, "range", 0, "")
		fs.IntVar(&cfg.UpdatePct, "update", 0, "")
		fs.IntVar(&cfg.OpsPerThread, "ops", 0, "")
		fs.BoolVar(&cfg.EarlyRelease, "early-release", false, "")
		m, build = &cfg.Options, func(label string) cell { return intsetCell(label, *cfg) }
	case "stamp":
		cfg := new(stamp.Config)
		fs.StringVar(&cfg.App, "app", "", "")
		fs.Float64Var(&cfg.Scale, "scale", 0, "")
		m, build = &cfg.Options, func(label string) cell { return stampCell(label, *cfg) }
	case "server":
		cfg := new(server.Config)
		fs.Float64Var(&cfg.Load, "load", 0, "")
		fs.IntVar(&cfg.RequestsPerCore, "requests", 0, "")
		fs.Float64Var(&cfg.Scale, "scale", 0, "")
		m, build = &cfg.Options, func(label string) cell { return serverCell(label, *cfg) }
	default:
		return cell{}, fmt.Errorf("harness: cell spec %q: unknown workload %q (want intset, stamp or server)", spec, workload)
	}
	fs.StringVar(&m.Runtime, "runtime", "", "")
	fs.IntVar(&m.Cores, "cores", 0, "")
	fs.StringVar(&m.Topology, "topology", "", "")
	// An Int64Var, not a flag.Func: the label prints each value's String,
	// and a Func value prints empty.
	fs.Int64Var(&m.Seed, "seed", 0, "")
	m.Trace, m.Profile = o.Trace, o.Profile

	for rest := words[1:]; len(rest) > 0; {
		k, v, ok := strings.Cut(rest[0], "=")
		if !ok {
			return cell{}, fmt.Errorf("harness: cell spec %q: %q is not key=value", spec, rest[0])
		}
		for rest = rest[1:]; len(rest) > 0 && !strings.Contains(rest[0], "="); rest = rest[1:] {
			v += " " + rest[0]
		}
		if err := fs.Set(k, v); err != nil {
			return cell{}, fmt.Errorf("harness: cell spec %q: %s=%s: %v", spec, k, v, err)
		}
	}
	label := workload
	fs.Visit(func(f *flag.Flag) {
		label += " " + f.Name + "=" + f.Value.String()
		m.SeedSet = m.SeedSet || f.Name == "seed"
	})
	return build(label), nil
}

// cellTables are a single cell's own tables: its measured phase, and its
// cycles by category. A failed cell's entries read ERR.
func cellTables(c *CellReport) []*Table {
	run := &Table{
		Title: "cell — measured phase",
		Header: []string{"cell", "ms", "tx/µs", "commits", "serial", "aborts", "wasted%",
			"p50", "p95", "p99", "p999", "max", "xsock-hops"},
		Note: "p50…max = sojourn-time quantiles in cycles (server cells; 0 elsewhere); " +
			"xsock-hops = cross-socket directory hops",
	}
	cats := &Table{
		Title:  "cell — cycles by category (summed over cores)",
		Header: []string{"category", "cycles", "share%"},
	}
	s := c.Sim
	if s == nil {
		run.Add(c.Label, "ERR", "ERR", "ERR", "ERR", "ERR", "ERR", "ERR", "ERR", "ERR", "ERR", "ERR", "ERR")
		for k := range sim.NumCategories {
			cats.Add(sim.Category(k), "ERR", "ERR")
		}
		return []*Table{run, cats}
	}

	soj, _ := s.Metrics.Histogram("server/sojourn_cyc")
	hops, _ := s.Metrics.Gauge("cache/xsock_hops")
	run.Add(c.Label, fmt.Sprintf("%.3f", ms(s)), tput(s), s.Stats.Commits, s.Stats.Serial, s.Stats.TotalAborts(),
		fmt.Sprintf("%.1f", s.WastedPct), fmt.Sprintf("%.0f", s.P50Cycles), fmt.Sprintf("%.0f", s.P95Cycles),
		fmt.Sprintf("%.0f", s.P99Cycles), fmt.Sprintf("%.0f", s.P999Cycles), soj.Max, hops.Total)

	b := breakdown(s)
	total := b.Total()
	share := func(n uint64) string { return fmt.Sprintf("%.1f", 100*float64(n)/float64(max(total, 1))) }
	for k, n := range b {
		cats.Add(sim.Category(k), n, share(n))
	}
	cats.Add("total", total, share(total))
	return []*Table{run, cats}
}
