// Command tmprof analyses the transaction-level flight-recorder profiles
// embedded in a BenchReport JSON document (asfbench -profile, or the txprof
// experiment which records unconditionally): per-cell wasted-work summaries,
// abort-cause breakdowns, the most contended cache lines, and the
// aborter→victim causality graph.
//
//	asfbench -experiment txprof -scale 0.1 -format json -o prof.json
//	tmprof prof.json                      # summary + per-cell leaderboards
//	tmprof -cell linkedlist prof.json     # only cells matching a substring
//	tmprof -top 8 prof.json               # cap the leaderboards
//	tmprof -dump prof.json                # raw per-core event dumps
//	tmprof -dot graph.dot prof.json       # causality graph as Graphviz DOT
//	tmprof -trace trace.json prof.json    # event windows as Chrome instants
//	tmprof -o analysis.txt prof.json
//
// All text output is assembled from the deterministic sim sections of the
// report, in report order with total sorts — so for a fixed seed it is
// byte-identical across runs and across the asfbench -parallel values that
// produced the report.
//
// Exit status 1 means the report contained no matching profiles; 2 means
// the invocation itself was bad (missing argument, unreadable or invalid
// report, unwritable output).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"asfstack/internal/harness"
	"asfstack/internal/tm"
	"asfstack/internal/trace"
	"asfstack/internal/txprof"
)

// profiledCell is one report cell that carried a flight-recorder snapshot.
type profiledCell struct {
	Name    string // "<experiment> <cell label>"
	Profile *txprof.Profile
}

func main() {
	cellFilter := flag.String("cell", "", "only analyse cells whose name contains this substring")
	top := flag.Int("top", txprof.TopLinesN, "rows kept in the contended-line and causality-edge leaderboards")
	dump := flag.Bool("dump", false, "print raw per-core event dumps instead of the analysis tables")
	dotPath := flag.String("dot", "", "write the aborter→victim causality graph as Graphviz DOT to this file")
	tracePath := flag.String("trace", "", "write the surviving event windows as a Chrome trace_event JSON file")
	outPath := flag.String("o", "", "write the text output to this file instead of stdout")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: tmprof [flags] report.json  (a BenchReport with txprof profiles)")
		os.Exit(2)
	}

	cells, err := loadProfiles(flag.Arg(0), *cellFilter)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tmprof:", err)
		os.Exit(2)
	}
	if len(cells) == 0 {
		if *cellFilter != "" {
			fmt.Fprintf(os.Stderr, "tmprof: %s: no profiled cells match -cell %q (run asfbench with -profile?)\n",
				flag.Arg(0), *cellFilter)
		} else {
			fmt.Fprintf(os.Stderr, "tmprof: %s: no cell carries a txprof profile (run asfbench with -profile?)\n",
				flag.Arg(0))
		}
		os.Exit(1)
	}

	emit := analyse(cells, *top)
	if *dump {
		emit = func(w io.Writer) error {
			for _, c := range cells {
				fmt.Fprintf(w, "\n== %s ==\n", c.Name)
				c.Profile.WriteDump(w)
			}
			return nil
		}
	}
	if err := writeOutput(*outPath, emit); err != nil {
		fmt.Fprintln(os.Stderr, "tmprof:", err)
		os.Exit(2)
	}

	if *dotPath != "" {
		if err := writeOutput(*dotPath, func(w io.Writer) error {
			writeDOT(w, cells)
			return nil
		}); err != nil {
			fmt.Fprintln(os.Stderr, "tmprof:", err)
			os.Exit(2)
		}
	}
	if *tracePath != "" {
		var tc []trace.ChromeCell
		for _, c := range cells {
			tc = append(tc, trace.ChromeCell{Name: c.Name, Run: profileRun(c.Profile)})
		}
		if err := writeOutput(*tracePath, func(w io.Writer) error {
			return trace.WriteChrome(w, tc)
		}); err != nil {
			fmt.Fprintln(os.Stderr, "tmprof:", err)
			os.Exit(2)
		}
	}
}

// loadProfiles reads a BenchReport document and returns every cell carrying
// a flight-recorder profile, in report order, filtered by substring match
// on "<experiment> <label>".
func loadProfiles(path, filter string) ([]profiledCell, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep harness.BenchReport
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: not valid JSON: %w", path, err)
	}
	if rep.Schema != harness.ReportSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, rep.Schema, harness.ReportSchema)
	}
	if rep.Version < 1 || rep.Version > harness.ReportVersion {
		return nil, fmt.Errorf("%s: version %d, want 1..%d", path, rep.Version, harness.ReportVersion)
	}
	var cells []profiledCell
	for _, exp := range rep.Experiments {
		for _, c := range exp.Cells {
			if c.Sim == nil || c.Sim.Profile == nil {
				continue
			}
			p := c.Sim.Profile
			if p.Schema != txprof.ProfileSchema || p.Version != txprof.ProfileVersion {
				return nil, fmt.Errorf("%s: cell %q: profile schema %q v%d, want %q v%d",
					path, c.Label, p.Schema, p.Version, txprof.ProfileSchema, txprof.ProfileVersion)
			}
			name := c.Label
			if !strings.HasPrefix(name, exp.Name+" ") {
				name = exp.Name + " " + name
			}
			if filter != "" && !strings.Contains(name, filter) {
				continue
			}
			cells = append(cells, profiledCell{Name: name, Profile: p})
		}
	}
	return cells, nil
}

// profileRun turns a profile's surviving event windows into a trace.Run
// that starts at its earliest event, so cells overlay at origin zero.
func profileRun(p *txprof.Profile) *trace.Run {
	run := &trace.Run{Start: ^uint64(0), Tx: make([][]tm.TxEvent, len(p.Cores))}
	for i, cl := range p.Cores {
		if len(cl.Events) > 0 {
			run.Start = min(run.Start, cl.Events[0].Time)
		}
		run.Tx[i] = cl.Events
	}
	return run
}

// analyse renders the summary table plus per-cell leaderboards.
func analyse(cells []profiledCell, top int) func(io.Writer) error {
	return func(w io.Writer) error {
		sum := &harness.Table{
			Title: "txprof — wasted-work summary (one row per profiled cell)",
			Header: []string{"cell", "begins", "commits", "aborts", "fallbacks",
				"useful-cyc", "wasted-cyc", "wasted%"},
			Note: "wasted% = attempt cycles thrown away on aborts / (useful + wasted)",
		}
		for _, c := range cells {
			s := c.Profile.Summary
			sum.Add(c.Name, s.Begins, s.Commits, s.Aborts, s.Fallbacks,
				s.UsefulCycles, s.WastedCycles, fmt.Sprintf("%.1f", 100*s.WastedRatio))
		}
		sum.Fprint(w)

		for _, c := range cells {
			s := c.Profile.Summary
			if len(s.AbortsByCause) > 0 {
				t := &harness.Table{
					Title:  c.Name + " — aborts by cause",
					Header: []string{"cause", "count"},
				}
				for _, cc := range s.AbortsByCause {
					t.Add(cc.Cause, cc.Count)
				}
				t.Fprint(w)
			}
			if len(s.TopLines) > 0 {
				t := &harness.Table{
					Title:  c.Name + " — most contended cache lines (flight window)",
					Header: []string{"line", "aborts"},
				}
				for i, lc := range s.TopLines {
					if i >= top {
						break
					}
					t.Add(lc.Addr.String(), lc.Count)
				}
				t.Fprint(w)
			}
			if len(s.Edges) > 0 {
				t := &harness.Table{
					Title:  c.Name + " — causality edges (aborter → victim, full run)",
					Header: []string{"aborter", "victim", "aborts"},
				}
				for i, e := range heaviestFirst(s.Edges) {
					if i >= top {
						break
					}
					t.Add(fmt.Sprintf("core %d", e.From), fmt.Sprintf("core %d", e.To), e.Count)
				}
				t.Fprint(w)
			}
		}
		return nil
	}
}

// heaviestFirst orders edges by count descending, ties by (from, to) — a
// total order, so leaderboards are deterministic.
func heaviestFirst(edges []txprof.Edge) []txprof.Edge {
	out := make([]txprof.Edge, len(edges))
	copy(out, edges)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		if out[i].From != out[j].From {
			return out[i].From < out[j].From
		}
		return out[i].To < out[j].To
	})
	return out
}

// writeDOT renders the causality graphs as one Graphviz document: each cell
// a cluster, each core a node, each aborter→victim edge labelled with its
// abort count. Deterministic: cells in report order, edges in (from, to)
// order as the profile stores them.
func writeDOT(w io.Writer, cells []profiledCell) {
	fmt.Fprintln(w, "digraph txprof {")
	fmt.Fprintln(w, "  rankdir=LR;")
	fmt.Fprintln(w, "  node [shape=circle];")
	for i, c := range cells {
		fmt.Fprintf(w, "  subgraph cluster_%d {\n", i)
		fmt.Fprintf(w, "    label=%q;\n", c.Name)
		seen := map[int]bool{}
		node := func(core int) {
			if !seen[core] {
				seen[core] = true
				fmt.Fprintf(w, "    c%d_%d [label=%q];\n", i, core, fmt.Sprintf("core %d", core))
			}
		}
		for _, e := range c.Profile.Summary.Edges {
			node(e.From)
			node(e.To)
		}
		for _, e := range c.Profile.Summary.Edges {
			fmt.Fprintf(w, "    c%d_%d -> c%d_%d [label=\"%d\"];\n", i, e.From, i, e.To, e.Count)
		}
		fmt.Fprintln(w, "  }")
	}
	fmt.Fprintln(w, "}")
}

// writeOutput writes via emit to path, or to stdout when path is empty.
func writeOutput(path string, emit func(io.Writer) error) error {
	if path == "" {
		return emit(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := emit(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
