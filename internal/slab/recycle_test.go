package slab_test

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"asfstack"
	"asfstack/internal/harness"
	"asfstack/internal/mem"
	"asfstack/internal/sim"
	"asfstack/internal/tm"
)

// recycleCells are small cells of the three workloads that release their
// machines, each on a different runtime: ASF with the L1-based read set,
// STM and HyTM on two sockets.
var recycleCells = []string{
	"intset structure=rbtree range=512 update=20 runtime=LLB-8 w/ L1 cores=4 ops=300",
	"stamp app=vacation-low runtime=STM cores=4 scale=0.1",
	"server runtime=HyTM-256 topology=2x4 load=1.4 scale=0.1",
}

// freshCell is the environment variable under which
// TestRecycledCellMatchesFresh starts its own binary again to run one cell
// in a new process, whose free lists are empty: "i:path" runs
// recycleCells[i] and writes its sim section to path.
const freshCell = "SLAB_FRESH_CELL"

// limit bounds each step of TestRecycledCellMatchesFresh. Each takes
// under 1.5 s on a 2-vCPU host even under the race detector, a new
// process included. A leak can hang a cell (a directory table without an
// empty slot probes forever), and the test must fail fast, not at go
// test's timeout.
const limit = 10 * time.Second

// TestRecycledCellMatchesFresh runs each cell on fresh slabs, in a new
// process of its own (a cell releases its machine when it ends, so only a
// process's first cell starts from empty lists), then runs them in this
// process after releasing a machine whose pages, caches, TLBs,
// directories and generators were filled with other data. The recycled
// runs must produce the same sim sections byte for byte: a slab that is
// not cleared when taken, or a generator that is not reseeded, leaks
// another machine into the cell.
func TestRecycledCellMatchesFresh(t *testing.T) {
	if arg := os.Getenv(freshCell); arg != "" {
		i, path, _ := strings.Cut(arg, ":")
		n, err := strconv.Atoi(i)
		if err != nil {
			t.Fatal(err)
		}
		sec, err := simSection(recycleCells[n])
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(sec), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	dir := t.TempDir()
	fresh := make([]string, len(recycleCells))
	for i, spec := range recycleCells {
		var err error
		if fresh[i], err = freshSection(i, dir); err != nil {
			t.Fatalf("%s in a new process: %v", spec, err)
		}
	}
	within(t, "the dirtying machine", func() error { dirty(); return nil })
	for i, spec := range recycleCells {
		var got string
		within(t, spec+" on recycled slabs", func() (err error) {
			got, err = simSection(spec)
			return err
		})
		if got != fresh[i] {
			t.Errorf("%s: the sim section on recycled slabs differs from the fresh run's", spec)
		}
	}
}

// freshSection runs recycleCells[i] in a new process of this test binary
// and returns the cell's sim section, read from a file in dir.
func freshSection(i int, dir string) (string, error) {
	ctx, cancel := context.WithTimeout(context.Background(), limit)
	defer cancel()
	path := filepath.Join(dir, strconv.Itoa(i))
	cmd := exec.CommandContext(ctx, os.Args[0], "-test.run=^TestRecycledCellMatchesFresh$")
	cmd.Env = append(os.Environ(), fmt.Sprintf("%s=%d:%s", freshCell, i, path))
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("%v\n%s", err, out)
	}
	sec, err := os.ReadFile(path)
	return string(sec), err
}

// within runs f and fails the test if f fails or has not returned within
// limit.
func within(t *testing.T, what string, f func() error) {
	done := make(chan error, 1)
	go func() { done <- f() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	case <-time.After(limit):
		t.Fatalf("%s: no result after %v", what, limit)
	}
}

// simSection runs one cell spec and returns its sim section as JSON.
func simSection(spec string) (string, error) {
	rep, err := harness.RunCell(spec, harness.Options{Parallel: 1})
	if err != nil {
		return "", err
	}
	if len(rep.Cells) != 1 {
		return "", fmt.Errorf("%d cells, want 1", len(rep.Cells))
	}
	j, err := json.Marshal(rep.Cells[0].Sim)
	return string(j), err
}

// dirty builds an 8-core machine with another seed, fills every slab kind
// with data no cell writes, and releases it. Each core stores to 64 pages
// of its own, loads them back (TLB entries), keeps 4,096 lines resident
// (cache blocks at full width and a coherence directory grown past its
// first tables), protects 200 lines per ASF region (the protection
// directory), and draws from its generator.
func dirty() {
	s := asfstack.New(asfstack.Options{Runtime: "LLB-256", Topology: "2x4", Seed: 7, SeedSet: true})
	const lines = 4096
	base := s.AllocShared(8 * lines * mem.LineSize)
	s.Parallel(8, func(c *sim.CPU) {
		mine := base + mem.Addr(c.ID()*lines*mem.LineSize)
		line := func(i int) mem.Addr { return mine + mem.Addr(i%lines*mem.LineSize) }
		r := c.Rand()
		for i := 0; i < lines; i++ {
			c.Store(line(i), mem.Word(r.Int63()|1))
		}
		for i := 0; i < lines; i++ {
			c.Load(line(i))
		}
		from := 0
		region := func(tx tm.Tx) {
			for j := 0; j < 200; j++ {
				a := line(from + 7*j)
				tx.Store(a, tx.Load(a)+1)
			}
		}
		for k := 0; k < 8; k++ {
			from = r.Intn(lines)
			s.Atomic(c, region)
		}
	})
	s.Release()
}
