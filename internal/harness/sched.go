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
// cell errors and still return every table; the failed cells render as
// "ERR" in their table slots.
type CellError struct {
	Cell string // cell label, e.g. "fig5 rbtree r=1024 LLB-8 t=4"
	Err  error
}

func (e *CellError) Error() string { return fmt.Sprintf("cell %q: %v", e.Cell, e.Err) }
func (e *CellError) Unwrap() error { return e.Err }

// cell is one independent unit of work — one simulated machine built, run
// and measured — whose results land in fixed slots of the experiment's
// tables. run returns a short summary line for the progress stream and
// records its simulated outcome on rec (for the report layer).
type cell struct {
	label string
	run   func(rec *CellRecord) (summary string, err error)
}

// slot is a single-writer result location pre-allocated by an experiment:
// exactly one cell sets it, and the assembly code reads it only after the
// worker pool has drained. A slot left unset (its cell failed) renders as
// "ERR".
type slot[T any] struct {
	val T
	ok  bool
}

func (s *slot[T]) set(v T) { s.val, s.ok = v, true }

// cell returns the value for a table slot, or "ERR" when the producing
// cell failed (its error is reported separately through runCells).
func (s *slot[T]) cell() any {
	if !s.ok {
		return "ERR"
	}
	return s.val
}

// runCells drains cells through a pool of worker goroutines and returns
// the joined per-cell errors (nil when every cell succeeded), in cell
// order. A cell that fails — by error or by panic — is reported and the
// remaining cells keep running; the experiment still assembles every
// table.
func runCells(cells []cell, o Options) error {
	workers := o.workers()
	if workers > len(cells) {
		workers = len(cells)
	}
	errs := make([]error, len(cells))
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
				i := int(next.Add(1)) - 1
				if i >= len(cells) {
					return
				}
				c := cells[i]
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
				}
				if err != nil {
					rep.Err = err.Error()
					rep.Sim = nil // a failed cell's partial state is not a result
				}
				reps[i] = rep
				mu.Lock()
				if err != nil {
					progf(o.Progress, "[%d/%d] %s FAILED (%v host): %v\n",
						i+1, len(cells), c.label, host, err)
				} else {
					progf(o.Progress, "[%d/%d] %s %s (%v host)\n",
						i+1, len(cells), c.label, summary, host)
				}
				mu.Unlock()
				if err != nil {
					errs[i] = &CellError{Cell: c.label, Err: err}
				}
			}
		}()
	}
	wg.Wait()
	if o.sink != nil {
		*o.sink = reps
	}
	return errors.Join(errs...)
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
