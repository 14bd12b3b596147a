package harness

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Options configures how an experiment schedules its cells.
type Options struct {
	// Scale shrinks workload sizes proportionally; <= 0 means 1.0, the
	// reported configuration.
	Scale float64
	// Parallel is the number of host goroutines running cells; <= 0 means
	// runtime.NumCPU(). Every cell is an isolated simulated machine and
	// results assemble in figure order, so tables are byte-identical for
	// any value.
	Parallel int
	// Progress receives one line per completed cell (may be nil).
	Progress Progress
	// Trace records every cell's measured phase as a trace.Run (the
	// asfbench -trace export). Off by default: event volume is
	// proportional to simulated work.
	Trace bool
	// Profile enables the transaction-level flight recorder in every cell
	// (the asfbench -profile flag); the txprof experiment records
	// unconditionally. Off by default.
	Profile bool

	// sink, when non-nil, receives every cell's report in cell order
	// (RunReport installs it).
	sink *[]*CellReport
}

func (o Options) scale() float64 {
	if o.Scale <= 0 {
		return 1
	}
	return o.Scale
}

func (o Options) workers() int {
	if o.Parallel <= 0 {
		return runtime.NumCPU()
	}
	return o.Parallel
}

// CellError is the failure of a single experiment cell. Experiments join
// cell errors and still return every table; the failed cells' entries
// read "ERR".
type CellError struct {
	Cell string // cell label, e.g. "fig5 rbtree r=1024 LLB-8 t=4"
	Err  error
}

func (e *CellError) Error() string { return fmt.Sprintf("cell %q: %v", e.Cell, e.Err) }
func (e *CellError) Unwrap() error { return e.Err }

// cell is one independent unit of work — one simulated machine built, run
// and measured. cfg is the workload config it runs (a stamp.Config,
// intset.Config or server.Config, compared by value), by which the
// experiment's tables find its report; nil for a cell that runs no
// workload config. run returns a short summary line for the progress
// stream and records its simulated outcome on rec, from which the cell's
// report and the experiment's tables are built.
type cell struct {
	label string
	cfg   any
	run   func(rec *CellRecord) (summary string, err error)
}

// runCells drains cells through a pool of worker goroutines and returns
// one report per cell, in cell order, with the joined per-cell errors (nil
// when every cell succeeded). A cell whose config an earlier cell already
// declared does not run: its report is the first cell's, under its own
// label and with an empty host section, and it fails when that cell does.
// A cell that fails — by error or by panic — is reported with no sim
// section and the remaining cells keep running; the experiment still
// assembles every table, reading "ERR" where a failed cell's numbers would
// be.
func runCells(cells []cell, o Options) ([]*CellReport, error) {
	// first[i] is the first cell with cells[i]'s config; runs lists the
	// cells that are their own first, in cell order.
	first := make([]int, len(cells))
	var runs []int
	for i, c := range cells {
		first[i] = i
		for j := range i {
			if c.cfg != nil && cells[j].cfg == c.cfg {
				first[i] = j
				break
			}
		}
		if first[i] == i {
			runs = append(runs, i)
		}
	}
	workers := min(o.workers(), len(cells))
	errs := make([]error, len(cells)) // each run's own error
	reps := make([]*CellReport, len(cells))
	var next atomic.Int64
	var mu sync.Mutex // serialises Progress writes
	var wg sync.WaitGroup
	poolStart := time.Now() // every cell is queued from here
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1)) - 1
				if k >= len(runs) {
					return
				}
				c := cells[runs[k]]
				queued := time.Since(poolStart)
				rec := &CellRecord{}
				start := time.Now()
				summary, err := runCell(c, rec)
				wall := time.Since(start)
				host := wall.Round(time.Millisecond)
				rep := &CellReport{
					Label: strings.TrimRight(c.label, " "),
					Sim:   rec.sim,
					Host: CellHost{
						WallMS:  float64(wall.Microseconds()) / 1e3,
						QueueMS: float64(queued.Microseconds()) / 1e3,
					},
					Trace: rec.trace,
					cfg:   c.cfg,
				}
				if err != nil {
					rep.Err = err.Error()
					rep.Sim = nil // a failed cell's partial state is not a result
				}
				reps[runs[k]], errs[runs[k]] = rep, err
				mu.Lock()
				if err != nil {
					progf(o.Progress, "[%d/%d] %s FAILED (%v host): %v\n",
						k+1, len(runs), c.label, host, err)
				} else {
					progf(o.Progress, "[%d/%d] %s %s (%v host)\n",
						k+1, len(runs), c.label, summary, host)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	var cellErrs []error
	for i, c := range cells {
		if j := first[i]; j != i {
			rep := *reps[j]
			rep.Label, rep.Host = strings.TrimRight(c.label, " "), CellHost{}
			reps[i] = &rep
		}
		if err := errs[first[i]]; err != nil {
			cellErrs = append(cellErrs, &CellError{Cell: c.label, Err: err})
		}
	}
	if o.sink != nil {
		*o.sink = reps
	}
	return reps, errors.Join(cellErrs...)
}

// runCell runs one cell, converting a workload panic (simulator
// assertion, arena exhaustion, bad configuration) into an error so a bad
// cell cannot kill the whole experiment.
func runCell(c cell, rec *CellRecord) (summary string, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return c.run(rec)
}
