package tm

import (
	"reflect"
	"testing"

	"asfstack/internal/sim"
)

func TestStatsArithmetic(t *testing.T) {
	var a Stats
	a.Commits = 10
	a.Serial = 2
	a.Aborts[sim.AbortContention] = 3
	a.Aborts[sim.AbortCapacity] = 1
	a.STMAborts = 4
	a.MallocAborts = 1

	if got := a.TotalAborts(); got != 8 {
		t.Errorf("TotalAborts = %d, want 8", got)
	}
	if got := a.Attempts(); got != 18 {
		t.Errorf("Attempts = %d, want 18", got)
	}

	var b Stats
	b.Commits = 5
	b.Aborts[sim.AbortContention] = 2
	b.Add(a)
	if b.Commits != 15 || b.Aborts[sim.AbortContention] != 5 ||
		b.Serial != 2 || b.STMAborts != 4 || b.MallocAborts != 1 {
		t.Errorf("Add result = %+v", b)
	}

	// Every counter, found by reflection so that a field added later is
	// covered too: Add sums each one and Sub takes the sum back.
	x, y := filledStats(100), filledStats(1)
	sum := x
	sum.Add(y)
	xv, yv, sv := counters(x), counters(y), counters(sum)
	for i := range sv {
		if sv[i] != xv[i]+yv[i] {
			t.Errorf("Add: counter %d = %d, want %d + %d", i, sv[i], xv[i], yv[i])
		}
	}
	sum.Sub(y)
	if sum != x {
		t.Errorf("Add then Sub = %+v, want %+v", sum, x)
	}
}

// filledStats returns a Stats whose counters hold distinct values from
// start upward.
func filledStats(start uint64) Stats {
	var s Stats
	n := start
	forEachCounter(reflect.ValueOf(&s).Elem(), func(v reflect.Value) {
		v.SetUint(n)
		n++
	})
	return s
}

// counters lists every counter of s in field order.
func counters(s Stats) []uint64 {
	var out []uint64
	forEachCounter(reflect.ValueOf(&s).Elem(), func(v reflect.Value) { out = append(out, v.Uint()) })
	return out
}

// forEachCounter visits every uint64 in v, descending into arrays.
func forEachCounter(v reflect.Value, visit func(reflect.Value)) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			forEachCounter(v.Field(i), visit)
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			forEachCounter(v.Index(i), visit)
		}
	case reflect.Uint64:
		visit(v)
	default:
		panic("tm.Stats holds a " + v.Kind().String() + "; extend forEachCounter")
	}
}
