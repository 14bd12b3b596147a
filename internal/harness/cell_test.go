package harness

import (
	"encoding/json"
	"strings"
	"testing"
)

// TestRunCellMatchesExperiments: a spec runs the same cell as an
// experiment does. Each spec's sim section is byte-identical to the sim
// section of its cell in the experiment's report at scale 0.01, whose
// intset cells run 1% of the experiment's operations per thread. The
// table1 cell's 2^17-bucket table and 64000 initial keys are derived from
// its range.
func TestRunCellMatchesExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("sweeps are slow")
	}
	for _, tc := range []struct {
		experiment, label, spec string
	}{
		{"fig4", "fig4 genome LLB-8 t=2", "stamp app=genome runtime=LLB-8 cores=2 scale=0.01"},
		{"fig5", "fig5 rbtree r=1024 LLB-256 w/ L1 t=4",
			"intset structure=rbtree range=1024 update=20 runtime=LLB-256 w/ L1 cores=4 ops=15"},
		{"table1", "table1 hashset LLB-256", "intset structure=hashset range=128000 update=100 runtime=LLB-256 cores=1 ops=40"},
		{"fig8", "fig8 LLB-8 er=true size=32",
			"intset structure=linkedlist range=64 update=20 runtime=LLB-8 cores=8 ops=12 early-release=true"},
		{"server", "server 2x8 Cohorts-turbo load=1.40", "server runtime=Cohorts-turbo topology=2x8 load=1.4 scale=0.01"},
	} {
		t.Run(tc.experiment, func(t *testing.T) {
			t.Parallel()
			simJSON := func(c *CellReport) string {
				data, err := json.Marshal(c.Sim)
				if err != nil {
					t.Fatal(err)
				}
				return string(data)
			}
			exp, err := RunReport(tc.experiment, Options{Scale: 0.01})
			if err != nil {
				t.Fatal(err)
			}
			want := ""
			for _, c := range exp.Cells {
				if strings.Join(strings.Fields(c.Label), " ") == tc.label {
					want = simJSON(c)
				}
			}
			if want == "" {
				t.Fatalf("%s has no cell %q", tc.experiment, tc.label)
			}
			rep, err := RunCell(tc.spec, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if got := simJSON(rep.Cells[0]); got != want {
				t.Errorf("cell %q: sim section differs from %s's %q:\n--- cell ---\n%.1500s\n--- %s ---\n%.1500s",
					rep.Cells[0].Label, tc.experiment, tc.label, got, tc.experiment, want)
			}
		})
	}
}

// FuzzParseCell: parsing a spec never panics, and an accepted spec's label
// parses back to the same label. testdata/fuzz/FuzzParseCell holds a
// runtime name with spaces, a repeated key, "=" inside a value, an unknown
// key, an unknown workload, an empty spec and a set seed.
func FuzzParseCell(f *testing.F) {
	f.Fuzz(func(t *testing.T, spec string) {
		c, err := parseCell(spec, Options{})
		if err != nil {
			return
		}
		again, err := parseCell(c.label, Options{})
		if err != nil || again.label != c.label {
			t.Fatalf("spec %q has label %q, which parses to %q, %v", spec, c.label, again.label, err)
		}
	})
}
