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

	type obs struct {
		distinct int // distinct outcomes observed
		allowed  int // envelope size
		viol     int // outcomes outside the envelope
		iters    int // interleavings actually run
		cycles   uint64
	}
	// res[test][runtime]: a violating cell fails but keeps its
	// observations, so the matrix shows VIOL:n for it. A nil entry is a
	// cell that panicked.
	res := make([][]*obs, len(litmus.Tests))
	var cells []cell
	for ti, tt := range litmus.Tests {
		res[ti] = make([]*obs, len(matrix))
		for ri, rc := range matrix {
			dst := &res[ti][ri]
			cells = append(cells, cell{
				label: fmt.Sprintf("litmus %-22s %-11s", tt.Name, rc.Label),
				run: func(rec *CellRecord) (string, error) {
					r := litmus.Explore(tt, rc, litmus.ExploreOptions{Seed: litmusSeed, Iters: iters})
					rec.ObserveRun(asfstack.RunResult{Cycles: r.Cycles, Stats: r.Stats})
					*dst = &obs{
						distinct: len(r.Outcomes),
						allowed:  len(r.Allowed),
						viol:     len(r.Violations),
						iters:    r.Iters,
						cycles:   r.Cycles,
					}
					if len(r.Violations) > 0 {
						return "", fmt.Errorf("%s", r.Violations[0])
					}
					return fmt.Sprintf("%d/%d outcomes", len(r.Outcomes), len(r.Allowed)), nil
				},
			})
		}
	}
	_, err := runCells(cells, o)

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
		for _, s := range res[ti] {
			switch {
			case s == nil:
				row = append(row, "ERR")
			case s.viol > 0:
				row = append(row, fmt.Sprintf("VIOL:%d", s.viol))
			default:
				row = append(row, fmt.Sprintf("%d/%d", s.distinct, s.allowed))
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
			s := res[ti][ri]
			if s == nil {
				ok = false
				break
			}
			itersSum += s.iters
			distinct += s.distinct
			viol += s.viol
			cyc += s.cycles
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
