package main

import (
	"errors"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain runs the command itself when a test re-executes the test binary
// with ASFBENCH_RUN_MAIN set, so the test can read its exit status.
func TestMain(m *testing.M) {
	if os.Getenv("ASFBENCH_RUN_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// asfbench runs the command with args and returns its combined output and
// exit status.
func asfbench(t *testing.T, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "ASFBENCH_RUN_MAIN=1")
	out, err := cmd.CombinedOutput()
	if ee := (*exec.ExitError)(nil); err != nil && !errors.As(err, &ee) {
		t.Fatal(err)
	}
	return string(out), cmd.ProcessState.ExitCode()
}

// TestCellExitCodes: a spec that does not parse, and -cell beside an
// explicit -experiment or -scale, are usage errors (2). A cell that fails
// exits 1 and its entries read ERR, as an experiment's failed cells do. A
// good spec exits 0 and labels its rows with the canonical spec.
func TestCellExitCodes(t *testing.T) {
	const good = "intset runtime=LLB-256 cores=2 structure=rbtree range=64 update=20 ops=20"
	for _, tc := range []struct {
		args []string
		code int
		want string
	}{
		{[]string{"-cell", ""}, 2, "empty cell spec"},
		{[]string{"-cell", "intset cores"}, 2, `"cores" is not key=value`},
		{[]string{"-cell", "intset cores=two"}, 2, "cores=two"},
		{[]string{"-cell", "intset zipf=1.2"}, 2, "no such flag -zipf"},
		{[]string{"-cell", "btree cores=2"}, 2, `unknown workload "btree"`},
		{[]string{"-cell", good, "-experiment", "fig5"}, 2, "-cell takes neither -experiment nor -scale"},
		{[]string{"-scale", "0.5", "-cell", good}, 2, "-cell takes neither -experiment nor -scale"},
		{[]string{"-cell", "intset runtime=Bogus cores=2 structure=rbtree range=64"}, 1, "ERR"},
		{[]string{"-cell", "intset runtime=LLB-256 cores=2 structure=btree range=64"}, 1, "ERR"},
		{[]string{"-cell", good}, 0, "intset cores=2 ops=20 range=64 runtime=LLB-256 structure=rbtree update=20"},
	} {
		out, code := asfbench(t, tc.args...)
		if code != tc.code || !strings.Contains(out, tc.want) {
			t.Errorf("asfbench %q: exit %d, want %d with %q; output:\n%s", tc.args, code, tc.code, tc.want, out)
		}
	}
}

// TestValidateAcceptsOlderVersions: -validate accepts every schema version
// from 1 to the current one. A version 2 document still carrying the
// removed engine fields — the report and experiment "engine" strings and
// per-cell "engine" sections — validates, because readers ignore unknown
// fields.
func TestValidateAcceptsOlderVersions(t *testing.T) {
	const v2 = `{
  "schema": "asfstack/bench-report",
  "version": 2,
  "scale": 0.05,
  "engine": "epoch",
  "experiments": [{
    "name": "fig5",
    "engine": "epoch",
    "workers": 2,
    "tables": [{"title": "t", "header": ["cell"], "rows": [["x"]]}],
    "cells": [{
      "label": "fig5 rbtree",
      "sim": {"cycles": 10, "stats": {}},
      "engine": {"epoch_commits": 3, "epoch_rollbacks": 1, "epoch_wasted_cyc": 40, "epoch_hits": 900},
      "host": {"wall_ms": 1.5, "queue_ms": 0}
    }]
  }]
}`
	dir := t.TempDir()
	for _, tc := range []struct {
		name, doc string
		want      int
	}{
		{"v2-engine", v2, 2},
		{"v1", strings.Replace(v2, `"version": 2`, `"version": 1`, 1), 1},
		{"v3", strings.Replace(v2, `"version": 2`, `"version": 3`, 1), 3},
	} {
		path := filepath.Join(dir, tc.name+".json")
		if err := os.WriteFile(path, []byte(tc.doc), 0o644); err != nil {
			t.Fatal(err)
		}
		v, err := validateReport(path)
		if err != nil || v != tc.want {
			t.Errorf("%s: validateReport = %d, %v; want %d, nil", tc.name, v, err, tc.want)
		}
	}
	path := filepath.Join(dir, "v4.json")
	if err := os.WriteFile(path, []byte(strings.Replace(v2, `"version": 2`, `"version": 4`, 1)), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := validateReport(path); err == nil {
		t.Error("version 4 accepted")
	}
}

// TestCheckFlags: a -scale that is not a finite number > 0, a -parallel
// below 1 and an unknown -format are usage errors, not silent defaults.
func TestCheckFlags(t *testing.T) {
	for _, tc := range []struct {
		format   string
		scale    float64
		parallel int
		ok       bool
	}{
		{"text", 1, 1, true},
		{"json", 0.05, 8, true},
		{"text", 0, 1, false},
		{"text", -1, 1, false},
		{"text", math.NaN(), 1, false},
		{"text", math.Inf(1), 1, false},
		{"text", math.Inf(-1), 1, false},
		{"text", 1, 0, false},
		{"text", 1, -3, false},
		{"xml", 1, 1, false},
	} {
		if err := checkFlags(tc.format, tc.scale, tc.parallel); (err == nil) != tc.ok {
			t.Errorf("-format %s -scale %v -parallel %d: err = %v, want ok=%v",
				tc.format, tc.scale, tc.parallel, err, tc.ok)
		}
	}
}
