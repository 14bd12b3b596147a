package sim

import (
	"math/rand"
	"strings"
	"testing"

	"asfstack/internal/mem"
)

// draws returns the first n values of every core's workload generator
// (Rand) and of its schedule-noise stream, in core order.
func draws(m *Machine, n int) [][]int64 {
	var out [][]int64
	for _, c := range m.cpus {
		for _, r := range []*rand.Rand{c.Rand(), c.jrng} {
			vs := make([]int64, n)
			for i := range vs {
				vs[i] = r.Int63()
			}
			out = append(out, vs)
		}
	}
	return out
}

// TestRecycledGeneratorsDrawLikeFresh builds a machine after releasing two
// whose generators had drawn from other seeds, and checks that every core's
// Rand and schedule-noise stream draw what a fresh machine's do.
func TestRecycledGeneratorsDrawLikeFresh(t *testing.T) {
	for {
		if _, ok := rands.Get(0); !ok {
			break
		}
	}
	cfg := Barcelona(4)
	cfg.SchedNoise = 50
	fresh := New(cfg)
	want := draws(fresh, 10_000)

	other := cfg
	other.Seed = 7
	o := New(other)
	draws(o, 500)
	released := map[*rand.Rand]bool{}
	for _, m := range []*Machine{fresh, o} {
		for _, c := range m.cpus {
			released[c.rng], released[c.jrng] = true, true
		}
		m.Release()
	}

	m := New(cfg)
	for _, c := range m.cpus {
		if !released[c.rng] || !released[c.jrng] {
			t.Fatalf("core %d got a new generator, not a released one", c.id)
		}
	}
	got := draws(m, 10_000)
	for s := range want {
		for i := range want[s] {
			if got[s][i] != want[s][i] {
				t.Fatalf("core %d's %s stream: draw %d is %d on a recycled generator, %d on a fresh one",
					s/2, [2]string{"Rand", "noise"}[s%2], i, got[s][i], want[s][i])
			}
		}
	}
}

// TestReleasedMachinePanics checks that Release refuses a running machine
// and that every use of a released one panics rather than touch slabs the
// next machine may own.
func TestReleasedMachinePanics(t *testing.T) {
	m := New(Barcelona(2))
	m.Mem.Prefault(0, 1<<16)
	store := func(c *CPU) { c.Store(mem.Addr(0x100+c.ID()*mem.LineSize), 1) }
	m.Run(store, store)

	mustPanic := func(what, want string, f func()) {
		t.Helper()
		defer func() {
			r := recover()
			if r == nil {
				t.Fatalf("%s did not panic", what)
			}
			if msg, _ := r.(string); want != "" && !strings.Contains(msg, want) {
				t.Fatalf("%s panicked with %v, want a message containing %q", what, r, want)
			}
		}()
		f()
	}
	mustPanic("Release on a running machine", "Release while the machine is running", func() {
		m.Run(func(*CPU) { m.Release() })
	})

	m.Release()
	m.Release() // a second Release hands nothing back twice
	mustPanic("a run on a released machine", "", func() { m.Run(store) })
	mustPanic("a load from released memory", "", func() { m.Mem.Load(0x100) })
	mustPanic("an access to a released hierarchy", "", func() { m.Hier.Access(0, 0x100, false) })
	mustPanic("a draw from a released core's generator", "", func() { m.CPU(0).Rand().Int63() })
}
