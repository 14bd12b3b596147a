package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

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
