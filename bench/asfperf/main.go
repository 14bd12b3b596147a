// Command asfperf is the repository benchmark. It runs four pinned asfbench
// sweeps through harness.RunReport on one worker, each workload in fresh
// child processes, one at a time:
//
//   - an untraced pass gives the end-to-end metrics (heap allocation,
//     set-up time) and the sweep's host times;
//   - per-layer metrics come from a second, traced pass of the same call
//     under a CPU profile folded into modules, plus probes that time calls
//     into each layer's public functions.
//
// Every cell's sim section is checked against committed digests, so a
// change that alters simulated behaviour shows up as failed cells, never as
// a speed-up. Run it from the repository root through bench/run.sh, which
// builds it:
//
//	bash bench/run.sh                                  # every workload, both passes, probes
//	bash bench/run.sh -trace 0 -o bench/out/a1.json    # untraced pass only
//	bash bench/run.sh -workload intset -seed 3 -seconds 20 -trace 1
//	bash bench/run.sh -compare bench/out/a1.json,bench/out/a2.json bench/out/b1.json,bench/out/b2.json
//	bash bench/run.sh -update-digests bench/asfperf/digests.json
//
// It prints one "workload metric value unit" line per metric (probes under
// workload "-"). With a single workload selected, the last line is one JSON
// object {"correct", "attempted", "failed", "metrics"} holding that
// workload's end-to-end metrics (-trace 0) or its per-layer metrics and the
// probes (-trace 1). The exit status is 1 when a cell failed its digest,
// 2 when the run could not be made.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

// setupStarts is how many extra child processes each workload starts only
// to time set-up; with the measuring child, set-up time is the median of
// setupStarts+1 starts.
const setupStarts = 20

func main() {
	workloadFlag := flag.String("workload", "intset,stamp,server,solo", "comma-separated workloads to run")
	seed := flag.Int64("seed", 1, "seed of the probes' address streams; the sweeps' seeds are fixed by the experiment definitions")
	seconds := flag.Float64("seconds", 0, "measure each workload for about this long: untraced passes repeat while another fits (0: one pass)")
	traceFlag := flag.Int("trace", 1, "0: untraced pass only; 1: also the traced pass and the probes")
	outPath := flag.String("o", "", "also write the results as JSON to this file")
	compareMode := flag.Bool("compare", false, "compare results files: asfperf -compare A1.json,A2.json,... B1.json,B2.json,...")
	updatePath := flag.String("update-digests", "", "run each selected workload once and write the sim digests to this file")
	child := flag.String("child", "", "internal: run one measurement role (setup, run, traced, probes) and print it as JSON")
	flag.Parse()

	if *compareMode {
		if flag.NArg() != 2 {
			fail(2, fmt.Errorf("-compare wants two comma-separated lists of results files"))
		}
		worse, err := compare(strings.Split(flag.Arg(0), ","), strings.Split(flag.Arg(1), ","), os.Stdout)
		if err != nil {
			fail(2, err)
		}
		if worse {
			os.Exit(1)
		}
		return
	}
	if flag.NArg() > 0 {
		fail(2, fmt.Errorf("unexpected arguments %q", flag.Args()))
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fail(2, fmt.Errorf("-trace %d: want 0 or 1", *traceFlag))
	}
	var wls []workload
	for _, name := range strings.Split(*workloadFlag, ",") {
		w, err := workloadByName(strings.TrimSpace(name))
		if err != nil {
			fail(2, err)
		}
		wls = append(wls, w)
	}

	var err error
	switch {
	case *child != "":
		err = childMain(*child, wls[0], *seed, *seconds)
	case *updatePath != "":
		err = updateDigests(*updatePath, wls)
	default:
		var res *results
		if res, err = runBenchmark(wls, *seed, *seconds, *traceFlag == 1); err == nil {
			err = report(res, *outPath, os.Stdout)
			if err == nil && !res.correct() {
				os.Exit(1)
			}
		}
	}
	if err != nil {
		fail(2, err)
	}
}

func fail(code int, err error) {
	fmt.Fprintln(os.Stderr, "asfperf:", err)
	os.Exit(code)
}

// childOut is what a child process reports on stdout.
type childOut struct {
	ReadyNS   int64    `json:"ready_ns"` // wall clock when ready to run the workload
	Passes    []pass   `json:"passes,omitempty"`
	PeakRSSMB float64  `json:"peak_rss_mb,omitempty"`
	Traced    *traced  `json:"traced,omitempty"`
	Probes    []metric `json:"probes,omitempty"`
}

// childMain runs one measurement role in this (fresh) process. Set-up ends
// once the pinned digests are loaded.
func childMain(role string, w workload, seed int64, seconds float64) error {
	all, err := loadDigests()
	if err != nil {
		return err
	}
	pin, ok := all[w.name]
	if !ok && role != "probes" {
		return fmt.Errorf("digests.json has no digests for %s (run -update-digests)", w.name)
	}
	out := childOut{ReadyNS: time.Now().UnixNano()}
	switch role {
	case "setup":
	case "run":
		if out.Passes, err = measurePasses(w, pin, seconds); err != nil {
			return err
		}
		out.PeakRSSMB = peakRSSMB()
	case "traced":
		tr, err := measureTraced(w, pin)
		if err != nil {
			return err
		}
		out.Traced = &tr
	case "probes":
		if out.Probes, err = runProbes(seed, probeOps); err != nil {
			return err
		}
	default:
		return fmt.Errorf("unknown -child role %q", role)
	}
	return json.NewEncoder(os.Stdout).Encode(out)
}

// spawn runs one child role and returns its report and its set-up time:
// from just before exec until the child was ready.
func spawn(role string, w workload, seed int64, seconds float64) (childOut, float64, error) {
	self, err := os.Executable()
	if err != nil {
		return childOut{}, 0, err
	}
	cmd := exec.Command(self, "-child", role, "-workload", w.name,
		"-seed", strconv.FormatInt(seed, 10), "-seconds", strconv.FormatFloat(seconds, 'g', -1, 64))
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	start := time.Now()
	if err := cmd.Run(); err != nil {
		return childOut{}, 0, fmt.Errorf("%s %s child: %w", w.name, role, err)
	}
	var out childOut
	if err := json.Unmarshal(stdout.Bytes(), &out); err != nil {
		return childOut{}, 0, fmt.Errorf("%s %s child: %w", w.name, role, err)
	}
	return out, float64(out.ReadyNS-start.UnixNano()) / 1e9, nil
}

// results is one benchmark run, as written by -o and read by -compare.
type results struct {
	Schema     string            `json:"schema"`
	Provenance provenance        `json:"provenance"`
	Workloads  []*workloadResult `json:"workloads"`
}

const resultsSchema = "asfstack/asfperf-results/v1"

// provenance records where the numbers came from.
type provenance struct {
	Go         string  `json:"go"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NProc      int     `json:"nproc"`
	Revision   string  `json:"revision"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
}

// workloadResult is one workload's outcome; workload "-" holds the probes.
type workloadResult struct {
	Name      string            `json:"name"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Passes    int               `json:"passes"`
	Metrics   []metric          `json:"metrics"`
	Notes     map[string]string `json:"notes,omitempty"`
}

func (r *results) correct() bool {
	for _, w := range r.Workloads {
		if !w.Correct {
			return false
		}
	}
	return true
}

func (w *workloadResult) add(ck check) {
	w.Attempted += ck.Cells
	w.Failed += ck.Failed
	w.Correct = w.Correct && ck.TablesOK && ck.Failed == 0
}

// runBenchmark runs the untraced pass of every workload, then (traced) the
// traced pass of every workload and the probes.
func runBenchmark(wls []workload, seed int64, seconds float64, withTrace bool) (*results, error) {
	res := &results{Schema: resultsSchema, Provenance: provenance{
		Go: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(),
		Revision: revision(), Seed: seed, Seconds: seconds, Trace: withTrace,
	}}
	runs := make([]childOut, len(wls))
	for i, w := range wls {
		var setups []float64
		for range setupStarts {
			_, s, err := spawn("setup", w, seed, seconds)
			if err != nil {
				return nil, err
			}
			setups = append(setups, s)
		}
		fmt.Fprintf(os.Stderr, "asfperf: %s: untraced pass (%v at scale %g)\n", w.name, w.exps, w.scale)
		out, s, err := spawn("run", w, seed, seconds)
		if err != nil {
			return nil, err
		}
		runs[i] = out
		r := &workloadResult{Name: w.name, Correct: true, Passes: len(out.Passes),
			Metrics: append(endToEnd(out.Passes, append(setups, s)), hostTime(out.Passes)...)}
		for _, p := range out.Passes {
			r.add(p.Check)
		}
		res.Workloads = append(res.Workloads, r)
	}
	if !withTrace {
		return res, nil
	}
	for i, w := range wls {
		fmt.Fprintf(os.Stderr, "asfperf: %s: traced pass\n", w.name)
		out, _, err := spawn("traced", w, seed, seconds)
		if err != nil {
			return nil, err
		}
		r := res.Workloads[i]
		r.add(out.Traced.Check)
		r.Metrics = append(r.Metrics, layerMetrics(runs[i].Passes, *out.Traced, runs[i].PeakRSSMB)...)
		cells := len(runs[i].Passes[0].CellMS)
		r.Notes = map[string]string{"harness.cell_ms_tail": fmt.Sprintf("p%g of %d cells", tailPct(cells), cells)}
	}
	fmt.Fprintln(os.Stderr, "asfperf: probes")
	out, _, err := spawn("probes", wls[0], seed, seconds)
	if err != nil {
		return nil, err
	}
	res.Workloads = append(res.Workloads, &workloadResult{Name: "-", Correct: true,
		Attempted: len(out.Probes), Metrics: out.Probes})
	return res, nil
}

// report prints the metric lines and, for a single workload, the closing
// JSON object; it writes the results file when asked.
func report(res *results, outPath string, w io.Writer) error {
	bw := bufio.NewWriter(w)
	p := res.Provenance
	fmt.Fprintf(bw, "# asfperf %s GOMAXPROCS=%d nproc=%d rev=%s seed=%d seconds=%g trace=%t\n",
		p.Go, p.GOMAXPROCS, p.NProc, p.Revision, p.Seed, p.Seconds, p.Trace)
	for _, wr := range res.Workloads {
		if wr.Name != "-" {
			fmt.Fprintf(bw, "# %s: %d cells attempted, %d failed, %d untraced passes\n",
				wr.Name, wr.Attempted, wr.Failed, wr.Passes)
		}
		for _, m := range wr.Metrics {
			fmt.Fprintf(bw, "%s %s %s %s", wr.Name, m.Name, strconv.FormatFloat(m.Value, 'g', -1, 64), m.Unit)
			if note := wr.Notes[m.Name]; note != "" {
				fmt.Fprintf(bw, " # %s", note)
			}
			fmt.Fprintln(bw)
		}
	}
	if n := len(res.Workloads); n == 1 || n == 2 && res.Workloads[1].Name == "-" {
		line, err := json.Marshal(contractLine(res))
		if err != nil {
			return err
		}
		fmt.Fprintf(bw, "%s\n", line)
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	if outPath == "" {
		return nil
	}
	b, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(outPath, append(b, '\n'), 0o644)
}

type valueUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type summary struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]valueUnit `json:"metrics"`
}

// contractLine summarises a single-workload run: its end-to-end metrics
// when untraced, its per-layer metrics and the probes when traced.
func contractLine(res *results) summary {
	wr := res.Workloads[0]
	s := summary{Correct: res.correct(), Attempted: wr.Attempted, Failed: wr.Failed, Metrics: map[string]valueUnit{}}
	for _, r := range res.Workloads {
		for _, m := range r.Metrics {
			if endToEnd := m.Bound > 0; endToEnd != res.Provenance.Trace {
				s.Metrics[m.Name] = valueUnit{m.Value, m.Unit}
			}
		}
	}
	return s
}

// revision is the git revision stamped into the binary by go build, or
// "unknown" outside a clone.
func revision() string {
	rev, dirty := "unknown", ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "+dirty"
				}
			}
		}
	}
	return rev + dirty
}
