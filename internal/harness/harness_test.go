package harness

import (
	"strconv"
	"strings"
	"testing"
)

func TestTableFormatting(t *testing.T) {
	tab := &Table{
		Title:  "demo",
		Header: []string{"name", "value"},
		Note:   "a note",
	}
	tab.Add("x", 1.23456)
	tab.Add("longer-name", 42)
	var b strings.Builder
	tab.Fprint(&b)
	out := b.String()
	for _, want := range []string{"demo", "name", "1.23", "longer-name", "42", "a note"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestRunRejectsUnknown: a cell spec naming an unknown workload yields a
// nil report and an error (TestRunReportUnknownName covers experiments).
func TestRunRejectsUnknown(t *testing.T) {
	if rep, err := RunCell("fig99 cores=1", Options{}); err == nil || rep != nil {
		t.Fatalf("unknown workload: report %v, err %v; want nil and an error", rep, err)
	}
}

func cellVal(t *testing.T, tab *Table, row, col int) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(tab.Rows[row][col], 64)
	if err != nil {
		t.Fatalf("cell (%d,%d) = %q: %v", row, col, tab.Rows[row][col], err)
	}
	return v
}

// TestFig8ShapeTiny runs the early-release experiment at a tiny scale and
// checks the paper's qualitative result: with early release, LLB-8
// throughput on long lists is far higher than without.
func TestFig8ShapeTiny(t *testing.T) {
	tables, err := Fig8(Options{Scale: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	llb8 := tables[0] // rows: without, with; cols: sizes 8..512
	lastCol := len(llb8.Header) - 1
	without := cellVal(t, llb8, 0, lastCol)
	with := cellVal(t, llb8, 1, lastCol)
	if with < 2*without {
		t.Fatalf("early release ineffective on LLB-8 size 512: %.2f vs %.2f", with, without)
	}
}

// TestTable1ShapeTiny checks the single-thread breakdown's headline
// shapes: STM spends far more in Tx load/store than ASF, and the ratio is
// larger for the cache-resident tree than for the miss-bound hash set.
func TestTable1ShapeTiny(t *testing.T) {
	tables, err := Table1(Options{Scale: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	// tables: [list, skip, rbtree, hashset, fig9norm]
	ratio := func(tab *Table) float64 {
		// row 3 = Tx load/store; col 3 = ratio.
		return cellVal(t, tab, 3, 3)
	}
	rb := ratio(tables[2])
	hs := ratio(tables[3])
	if rb < 2 {
		t.Fatalf("rbtree STM/ASF barrier ratio = %.2f, want >> 1", rb)
	}
	if hs >= rb {
		t.Fatalf("hash-set ratio (%.2f) not below rbtree ratio (%.2f): cache-miss effect missing", hs, rb)
	}
}

// TestFig3ShapeTiny: the two timing models must produce nonzero times and
// bounded deviations.
func TestFig3ShapeTiny(t *testing.T) {
	tables, err := Fig3(Options{Scale: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tables[0].Rows {
		sim, _ := strconv.ParseFloat(row[1], 64)
		nat, _ := strconv.ParseFloat(row[2], 64)
		dev, _ := strconv.ParseFloat(row[3], 64)
		if sim <= 0 || nat <= 0 {
			t.Fatalf("%s: nonpositive times", row[0])
		}
		if dev < -60 || dev > 120 {
			t.Fatalf("%s: deviation %.1f%% out of plausible range", row[0], dev)
		}
	}
}

// TestFig7ShapeTiny checks the capacity crossover of Fig. 7: at mid sizes
// (62–126 elements) LLB-256 must far outperform LLB-8 (whose capacity is
// exhausted past ~8 elements), while at size 510 even LLB-256's traversals
// overflow and the curves converge — both effects the paper reports.
func TestFig7ShapeTiny(t *testing.T) {
	tables, err := Fig7(Options{Scale: 0.15})
	if err != nil {
		t.Fatal(err)
	}
	list := tables[0] // rows: LLB-8, LLB-256, LLB-8 w/L1, LLB-256 w/L1
	// Header: [variant, 6, 14, 30, 62, 126, 254, 510] — col 5 is size 126.
	mid8 := cellVal(t, list, 0, 5)
	mid256 := cellVal(t, list, 1, 5)
	if mid256 < 2*mid8 {
		t.Fatalf("size-126 list: LLB-256 %.2f vs LLB-8 %.2f — no capacity gap", mid256, mid8)
	}
	// At 510 the read set exceeds 256 lines too: near-converged curves.
	lastCol := len(list.Header) - 1
	last8 := cellVal(t, list, 0, lastCol)
	last256 := cellVal(t, list, 1, lastCol)
	if last256 > 4*last8 {
		t.Fatalf("size-510 list: LLB-256 %.2f vs LLB-8 %.2f — should converge", last256, last8)
	}
	// LLB-8 itself must degrade sharply from tiny to large lists.
	small8 := cellVal(t, list, 0, 1)
	if small8 < 2*last8 {
		t.Fatalf("LLB-8: %.2f at size 6 vs %.2f at 510 — no collapse", small8, last8)
	}
}
