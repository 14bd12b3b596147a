package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
)

// hostTimeBound is the bound -compare judges host times against: the
// largest an end-to-end metric may carry. On a noisy host most host-time
// rows therefore read unresolved, which is the honest answer there.
const hostTimeBound = 0.25

// compare reads two sets of results files (A, the baseline, and B) and
// prints, for each workload and end-to-end or host-time metric, both sides'
// median and quartiles, B's change against A relative to the metric's
// bound, and a verdict. It reports whether any verdict is "worse".
func compare(aPaths, bPaths []string, w io.Writer) (worse bool, err error) {
	a, err := loadResults(aPaths)
	if err != nil {
		return false, err
	}
	b, err := loadResults(bPaths)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "%-8s %-22s %-33s %-33s %8s %6s  %s\n",
		"workload", "metric", "A median [q1 q3]", "B median [q1 q3]", "delta", "bound", "verdict")
	var defs []metricDef
	for _, m := range endToEnd(nil, nil) {
		defs = append(defs, m.metricDef)
	}
	for _, m := range hostTime(nil) {
		m.Bound = hostTimeBound
		defs = append(defs, m.metricDef)
	}
	for _, wl := range workloads {
		for _, d := range defs {
			av, bv := a[wl.name][d.Name], b[wl.name][d.Name]
			if len(av) == 0 || len(bv) == 0 {
				continue
			}
			delta, v := verdict(d, av, bv)
			if v == "worse" {
				worse = true
			}
			fmt.Fprintf(w, "%-8s %-22s %-33s %-33s %+7.2f%% %5.1f%%  %s\n",
				wl.name, d.Name, spread(av), spread(bv), 100*delta, 100*d.Bound, v)
		}
	}
	return worse, nil
}

// loadResults reads results files into workload → metric → values, one
// value per file.
func loadResults(paths []string) (map[string]map[string][]float64, error) {
	out := map[string]map[string][]float64{}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var res results
		if err := json.Unmarshal(data, &res); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if res.Schema != resultsSchema {
			return nil, fmt.Errorf("%s: schema %q, want %q", path, res.Schema, resultsSchema)
		}
		for _, wr := range res.Workloads {
			if out[wr.Name] == nil {
				out[wr.Name] = map[string][]float64{}
			}
			for _, m := range wr.Metrics {
				out[wr.Name][m.Name] = append(out[wr.Name][m.Name], m.Value)
			}
		}
	}
	return out, nil
}

// verdict compares B against A. delta is B's median change relative to
// A's, signed so that positive is worse. The result is unresolved when
// either side's quartile spread exceeds the bound, unless every B run beats
// every A run; otherwise worse or better when delta passes the bound, and
// same inside it. setup_s is judged on its medians alone: a process start
// lasts a millisecond, and the benchmark's contract exempts its spread.
func verdict(d metricDef, a, b []float64) (delta float64, v string) {
	qa, qb := quartiles(a), quartiles(b)
	sign := 1.0
	if d.Better == "higher" {
		sign = -1
	}
	delta = sign * ratio(qb[1]-qa[1], qa[1])
	dominates := slices.Max(b) < slices.Min(a)
	if d.Better == "higher" {
		dominates = slices.Min(b) > slices.Max(a)
	}
	switch {
	case d.Name != "setup_s" && (ratio(qa[2]-qa[0], qa[1]) > d.Bound || ratio(qb[2]-qb[0], qb[1]) > d.Bound):
		if dominates {
			return delta, "better"
		}
		return delta, "unresolved"
	case delta > d.Bound:
		return delta, "worse"
	case delta < -d.Bound:
		return delta, "better"
	}
	return delta, "same"
}

// quartiles are Python's statistics.quantiles(vs, n=4) (the exclusive
// method), the definition the benchmark's acceptance check uses.
func quartiles(vs []float64) [3]float64 {
	s := slices.Clone(vs)
	slices.Sort(s)
	n := len(s)
	if n == 1 {
		return [3]float64{s[0], s[0], s[0]}
	}
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := i * (n + 1) / 4
		j = max(1, min(j, n-1))
		delta := float64(i*(n+1) - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q
}

func spread(vs []float64) string {
	q := quartiles(vs)
	return fmt.Sprintf("%.4g [%.4g %.4g] n=%d", q[1], q[0], q[2], len(vs))
}
