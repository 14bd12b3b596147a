// Package harness defines and runs the paper's evaluation experiments
// (E1–E7 in DESIGN.md): one function per figure/table, each returning
// plain-text tables with the same rows/series the paper plots. cmd/asfbench
// and the repository benchmarks drive these.
package harness

import (
	"fmt"
	"io"
	"strings"
	"unicode/utf8"
)

// Table is one printable result table (a figure panel or a table). The JSON
// tags are part of the BenchReport schema (see report.go).
type Table struct {
	Title  string     `json:"title"`
	Header []string   `json:"header"`
	Rows   [][]string `json:"rows"`
	Note   string     `json:"note,omitempty"`
}

// Add appends a row; values are formatted with %v, floats with 2 decimals.
func (t *Table) Add(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// grid adds one row per row label: the label, then entry(r, c) for each
// of the n columns c.
func (t *Table) grid(rows []string, n int, entry func(r, c int) any) {
	for r, label := range rows {
		row := []any{label}
		for c := range n {
			row = append(row, entry(r, c))
		}
		t.Add(row...)
	}
}

// Fprint renders the table with aligned columns.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "\n== %s ==\n", t.Title)
	// Widths count runes, as fmt's padding does, so a multi-byte rune
	// (tx/µs, p50…max) takes one column.
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = utf8.RuneCountInString(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) {
				widths[i] = max(widths[i], utf8.RuneCountInString(c))
			}
		}
	}
	line := func(cells []string) {
		var b strings.Builder
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			if i < len(widths) {
				fmt.Fprintf(&b, "%-*s", widths[i], c)
			} else {
				b.WriteString(c)
			}
		}
		fmt.Fprintln(w, strings.TrimRight(b.String(), " "))
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range t.Rows {
		line(r)
	}
	if t.Note != "" {
		fmt.Fprintf(w, "note: %s\n", t.Note)
	}
}

// Progress is where experiments report per-run progress lines (may be
// io.Discard).
type Progress = io.Writer

func progf(w Progress, format string, args ...any) {
	if w != nil {
		fmt.Fprintf(w, format, args...)
	}
}

// experiments is the registry RunReport dispatches on, in paper order; the
// extension experiments (E11+) follow the paper's figures. desc is the
// one-line summary cmd/asfbench -list prints.
var experiments = []struct {
	name, desc string
	run        func(Options) ([]*Table, error)
}{
	{"fig3", "simulator accuracy: single-threaded STAMP, simulated vs native-reference runtime", Fig3},
	{"fig4", "STAMP scalability: execution time for all apps, ASF variants and STM, 1-8 threads", Fig4},
	{"fig5", "IntegerSet scalability: throughput for the four ASF variants, eight panels", Fig5},
	{"fig6", "abort breakdown: share of aborted attempts by cause, per app/variant/threads", Fig6},
	{"fig7", "ASF capacity: throughput vs structure size at 8 threads (list and rbtree)", Fig7},
	{"fig8", "early release: linked-list throughput with and without early release", Fig8},
	{"table1", "single-thread overhead: cycle breakdown ASF-TM vs TinySTM, plus Fig. 9 composition", Table1},
	{"hybrid", "E11: capacity-bound cells, serial-fallback ASF-TM vs the hybrid (HyTM) runtime", Hybrid},
	{"litmus", "E12: cross-runtime litmus conformance — deterministic schedule explorer vs oracle envelopes", Litmus},
	{"adaptive", "E13: static-vs-adaptive runtime selection — four statics vs the online selector, with its decision log", Adaptive},
	{"txprof", "E14: wasted-work accounting — flight-recorder profiles for every runtime on the Fig. 5 cells", Txprof},
	{"grid64", "E15: 64-core grid — Fig. 5 large panels and the E13 runtime field widened to 64 threads", Grid64},
	{"server", "E16: open-loop server — sojourn-time quantiles per (runtime × topology × load), multi-socket topologies, overload tail", Server},
}

// Names lists the experiments RunReport accepts, in registry order, and
// Descriptions maps each to its one-line summary.
var Names, Descriptions = func() ([]string, map[string]string) {
	names := make([]string, len(experiments))
	descs := make(map[string]string, len(experiments))
	for i, e := range experiments {
		names[i], descs[e.name] = e.name, e.desc
	}
	return names, descs
}()
