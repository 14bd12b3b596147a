package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"

	"asfstack/internal/harness"
	"asfstack/internal/metrics"
)

// digestsJSON pins every workload's simulated output. It is rewritten by
// -update-digests, and only a change that redefines the benchmark commits
// the result: everywhere else a mismatch is a changed simulation.
//
//go:embed digests.json
var digestsJSON []byte

// digests are one workload's sha256 prefixes: one per cell, over its label
// and sim section, and one over all its tables. Host-side fields (the cell
// host and engine sections, the snapshot's host section) are left out
// because they differ run to run.
type digests struct {
	Tables string            `json:"tables"`
	Cells  map[string]string `json:"cells"`
}

func loadDigests() (map[string]digests, error) {
	var d map[string]digests
	if err := json.Unmarshal(digestsJSON, &d); err != nil {
		return nil, fmt.Errorf("digests.json: %w", err)
	}
	return d, nil
}

func sum(parts ...[]byte) string {
	h := sha256.New()
	for _, p := range parts {
		h.Write(p)
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// digestReports computes a sweep's digests. A failed cell has no sim
// section and gets an empty digest, which never matches.
func digestReports(reps []*harness.ExperimentReport) (digests, error) {
	d := digests{Cells: map[string]string{}}
	var tables [][]*harness.Table
	for _, rep := range reps {
		tables = append(tables, rep.Tables)
		for _, c := range rep.Cells {
			if _, dup := d.Cells[c.Label]; dup {
				return digests{}, fmt.Errorf("%s: cell label %q repeats", rep.Name, c.Label)
			}
			d.Cells[c.Label] = ""
			if c.Sim == nil {
				continue
			}
			s := *c.Sim
			if s.Metrics != nil {
				m := *s.Metrics
				m.Host = metrics.Section{}
				s.Metrics = &m
			}
			b, err := json.Marshal(s)
			if err != nil {
				return digests{}, fmt.Errorf("%s: %w", c.Label, err)
			}
			d.Cells[c.Label] = sum([]byte(c.Label), b)
		}
	}
	b, err := json.Marshal(tables)
	if err != nil {
		return digests{}, err
	}
	d.Tables = sum(b)
	return d, nil
}

// verify checks a sweep against the pinned digests: a cell fails when it
// errored, when its digest differs, or when the pin has no such cell.
func (pin digests) verify(reps []*harness.ExperimentReport) (check, error) {
	got, err := digestReports(reps)
	if err != nil {
		return check{}, err
	}
	ck := check{Cells: len(got.Cells), TablesOK: got.Tables == pin.Tables && len(got.Cells) == len(pin.Cells)}
	for label, g := range got.Cells {
		if want, ok := pin.Cells[label]; g == "" || !ok || g != want {
			ck.Failed++
		}
	}
	return ck, nil
}

// updateDigests runs each workload's sweep once and writes the digests of
// all workloads to path, keeping the pinned ones of workloads not rerun.
func updateDigests(path string, wls []workload) error {
	all, err := loadDigests()
	if err != nil {
		all = map[string]digests{}
	}
	for _, w := range wls {
		fmt.Fprintf(os.Stderr, "asfperf: %s: running %v at scale %g\n", w.name, w.exps, w.scale)
		reps, err := w.sweep()
		if err != nil {
			return err
		}
		for _, rep := range reps {
			if rep.Err != "" {
				return fmt.Errorf("%s: %s: cells failed: %s", w.name, rep.Name, rep.Err)
			}
		}
		if all[w.name], err = digestReports(reps); err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
	}
	b, err := json.MarshalIndent(all, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
