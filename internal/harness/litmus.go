package harness

import (
	"fmt"

	"asfstack"
	"asfstack/internal/litmus"
)

// litmusSeed is the fixed exploration seed for the harness run: one seed is
// one deterministic sequence of interleavings, so the tables are
// reproducible bit for bit (go test exercises additional seeds).
const litmusSeed = 1

// Litmus — E12: the cross-runtime litmus conformance matrix. Every litmus
// test runs on every runtime configuration under the deterministic schedule
// explorer; each cell's outcomes are judged against the oracle envelope for
// that runtime's isolation class. A violation fails the cell loudly and
// shows up as VIOL in the matrix — its message carries the (seed, iteration)
// replay pointer.
func Litmus(o Options) ([]*Table, error) {
	iters := int(250 * o.scale())
	if iters < 40 {
		iters = 40
	}
	matrix := litmus.Matrix()
	nR := len(matrix)

	type obs struct {
		distinct int // distinct outcomes observed
		allowed  int // envelope size
		viol     int // outcomes outside the envelope
		iters    int // interleavings actually run
		cycles   uint64
	}
	res := make([]slot[obs], len(litmus.Tests)*nR)
	var cells []cell
	for ti, tt := range litmus.Tests {
		for ri, rc := range matrix {
			tt, rc := tt, rc
			dst := &res[ti*nR+ri]
			cells = append(cells, cell{
				label: fmt.Sprintf("litmus %-22s %-11s", tt.Name, rc.Label),
				run: func(rec *CellRecord) (string, error) {
					r := litmus.Explore(tt, rc, litmus.ExploreOptions{Seed: litmusSeed, Iters: iters})
					rec.ObserveRun(asfstack.RunResult{Cycles: r.Cycles, Stats: r.Stats})
					dst.set(obs{
						distinct: len(r.Outcomes),
						allowed:  len(r.Allowed),
						viol:     len(r.Violations),
						iters:    r.Iters,
						cycles:   r.Cycles,
					})
					if len(r.Violations) > 0 {
						return "", fmt.Errorf("%s", r.Violations[0])
					}
					return fmt.Sprintf("%d/%d outcomes", len(r.Outcomes), len(r.Allowed)), nil
				},
			})
		}
	}
	err := runCells(cells, o)

	// Matrix: one row per test, one column per runtime. A conforming cell
	// reads observed/allowed (how much of the envelope the explorer reached);
	// a violating cell reads VIOL:n.
	header := []string{"test"}
	for _, rc := range matrix {
		header = append(header, rc.Label)
	}
	mt := &Table{
		Title:  "E12 — litmus conformance matrix (distinct outcomes observed / envelope size)",
		Header: header,
		Note: fmt.Sprintf("seed %d, %d interleavings per cell; strong runtimes judged against the "+
			"strong envelope, weak ones against the weak envelope; VIOL:n = n outcomes outside it",
			litmusSeed, iters),
	}
	for ti, tt := range litmus.Tests {
		row := []any{tt.Name}
		for ri := range matrix {
			s := res[ti*nR+ri]
			switch {
			case !s.ok:
				row = append(row, "ERR")
			case s.val.viol > 0:
				row = append(row, fmt.Sprintf("VIOL:%d", s.val.viol))
			default:
				row = append(row, fmt.Sprintf("%d/%d", s.val.distinct, s.val.allowed))
			}
		}
		mt.Add(row...)
	}

	// Per-runtime summary: coverage and conformance totals per column.
	st := &Table{
		Title:  "E12 — litmus conformance by runtime",
		Header: []string{"runtime", "isolation", "tests", "interleavings", "distinct outcomes", "violations", "sim Mcycles"},
		Note:   "interleavings and cycles sum over the runtime's tests; cycles are simulated, not host time",
	}
	for ri, rc := range matrix {
		var itersSum, distinct, viol int
		var cyc uint64
		ok := true
		for ti := range litmus.Tests {
			s := res[ti*nR+ri]
			if !s.ok {
				ok = false
				break
			}
			itersSum += s.val.iters
			distinct += s.val.distinct
			viol += s.val.viol
			cyc += s.val.cycles
		}
		if !ok {
			st.Add(rc.Label, rc.Isolation.String(), len(litmus.Tests), "ERR", "ERR", "ERR", "ERR")
			continue
		}
		st.Add(rc.Label, rc.Isolation.String(), len(litmus.Tests), itersSum, distinct, viol,
			float64(cyc)/1e6)
	}
	return []*Table{mt, st}, err
}
