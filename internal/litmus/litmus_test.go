package litmus

import (
	"fmt"
	"reflect"
	"testing"
)

// --- oracle self-checks ----------------------------------------------------

// TestOracleTornWrite hand-checks the strong and weak envelopes of the
// atomicity test: the torn observation exists in exactly the weak one.
func TestOracleTornWrite(t *testing.T) {
	tt := ByName("atomicity-torn-write")
	torn := "1:r0=1 1:r1=0 x=1 y=1"
	strong, weak := tt.Strong(), tt.Weak()
	if len(strong) != 3 {
		t.Errorf("strong envelope: got %v, want 3 outcomes", SortedOutcomes(strong))
	}
	if strong[torn] {
		t.Errorf("strong envelope must forbid the torn read %q", torn)
	}
	if !weak[torn] {
		t.Errorf("weak envelope must allow the torn read %q", torn)
	}
}

// TestOracleLostUpdate: both serializations end at x=2, nothing else.
func TestOracleLostUpdate(t *testing.T) {
	tt := ByName("lost-update")
	want := []string{"0:r0=0 1:r0=1 x=2", "0:r0=1 1:r0=0 x=2"}
	if got := SortedOutcomes(tt.Strong()); !reflect.DeepEqual(got, want) {
		t.Errorf("strong envelope: got %v, want %v", got, want)
	}
	// No plain operations: the weak model collapses to the strong one.
	if got := SortedOutcomes(tt.Weak()); !reflect.DeepEqual(got, want) {
		t.Errorf("weak envelope: got %v, want %v", got, want)
	}
}

// TestOracleStrongSubsetOfWeak: every strong outcome must be weakly allowed
// (the weak model only adds interleavings).
func TestOracleStrongSubsetOfWeak(t *testing.T) {
	for _, tt := range Tests {
		weak := tt.Weak()
		for o := range tt.Strong() {
			if !weak[o] {
				t.Errorf("%s: strong outcome %q missing from weak envelope", tt.Name, o)
			}
		}
	}
}

// TestOracleForbidden spot-checks that the signature anomaly of each
// serializability test is outside even the weak envelope.
func TestOracleForbidden(t *testing.T) {
	cases := map[string]string{
		"write-skew":       "0:r0=0 1:r0=0 x=1 y=1",
		"store-buffering":  "0:r0=0 1:r0=0 x=1 y=1",
		"load-buffering":   "0:r0=1 1:r0=1 x=1 y=1",
		"message-passing":  "1:r0=1 1:r1=0 x=1 f=1",
		"dirty-read-write": "0:r0=0 1:r1=0 x=1 y=1",
		"write-causality":  "1:r0=1 2:r0=1 2:r1=0 x=1 y=1",
	}
	for name, anomaly := range cases {
		tt := ByName(name)
		if tt == nil {
			t.Fatalf("unknown test %q", name)
		}
		if tt.Weak()[anomaly] {
			t.Errorf("%s: anomaly %q must be outside the weak envelope", name, anomaly)
		}
	}
}

// --- conformance -----------------------------------------------------------

func iters(short, full int) int {
	if testing.Short() {
		return short
	}
	return full
}

// TestConformance is the suite: every litmus test on every runtime in the
// matrix — with six runtime configurations this explores thousands of
// interleavings per test even in short mode.
func TestConformance(t *testing.T) {
	n := iters(250, 1000)
	for _, tt := range Tests {
		for _, rc := range Matrix() {
			tt, rc := tt, rc
			t.Run(fmt.Sprintf("%s/%s", tt.Name, rc.Label), func(t *testing.T) {
				t.Parallel()
				res := Explore(tt, rc, ExploreOptions{Seed: 1, Iters: n})
				for _, v := range res.Violations {
					t.Errorf("%s", v)
				}
				if t.Failed() {
					t.Logf("observed outcomes: %v", SortedOutcomes(setOf(res.Outcomes)))
				}
			})
		}
	}
}

func setOf(m map[string]int) map[string]bool {
	s := make(map[string]bool, len(m))
	for k := range m {
		s[k] = true
	}
	return s
}

// --- explorer determinism --------------------------------------------------

// TestExplorerDeterministic: the same (test, runtime, seed) produce the
// same iteration trace — outcome and commit order — even when the two
// explorations run concurrently on the host (the go test -parallel
// situation).
func TestExplorerDeterministic(t *testing.T) {
	tt := ByName("lost-update")
	opts := ExploreOptions{Seed: 7, Iters: iters(60, 200)}
	rcs := []RuntimeConfig{Matrix()[0], Matrix()[4]} // ASF-TM and STM
	for _, rc := range rcs {
		ch := make(chan *Result, 2)
		for i := 0; i < 2; i++ {
			go func() { ch <- Explore(tt, rc, opts) }()
		}
		a, b := <-ch, <-ch
		if !reflect.DeepEqual(a.Trace, b.Trace) {
			t.Errorf("%s: concurrent explorations of the same seed diverged", rc.Label)
		}
		if !reflect.DeepEqual(a.Stats, b.Stats) || a.Cycles != b.Cycles {
			t.Errorf("%s: stats or cycles diverged across identical explorations", rc.Label)
		}
	}
}

// TestSeedsExploreDifferently: distinct seeds must drive distinct
// interleaving sequences — otherwise the explorer adds no coverage.
func TestSeedsExploreDifferently(t *testing.T) {
	tt := ByName("atomicity-torn-write")
	rc := Matrix()[0]
	n := iters(80, 200)
	a := Explore(tt, rc, ExploreOptions{Seed: 1, Iters: n})
	b := Explore(tt, rc, ExploreOptions{Seed: 2, Iters: n})
	if reflect.DeepEqual(a.Trace, b.Trace) {
		t.Errorf("seeds 1 and 2 produced identical %d-iteration traces", n)
	}
}

// TestNoiseExplores: with schedule noise, a test with racing outcomes must
// actually observe more than one outcome across iterations.
func TestNoiseExplores(t *testing.T) {
	tt := ByName("atomicity-torn-write")
	res := Explore(tt, Matrix()[0], ExploreOptions{Seed: 3, Iters: iters(100, 300)})
	if len(res.Outcomes) < 2 {
		t.Errorf("explorer found only %v — schedule noise is not spreading interleavings",
			SortedOutcomes(setOf(res.Outcomes)))
	}
}

// --- pinned regressions ----------------------------------------------------

// TestSTMPrivatizationRegression pins the bug this suite flushed out of the
// STM: without commit-time quiescence, a doomed transaction that read the
// pre-privatization state can write through (and later undo) in place
// *after* the privatizing transaction committed, exposing its speculative
// value — or destroying plain stores — under the privatizer's plain
// accesses. The unsafe configuration must still reproduce the violation
// (the test is sharp) and the default, privatization-safe configuration
// must not (the fix works).
func TestSTMPrivatizationRegression(t *testing.T) {
	tt := ByName("privatization")
	opts := ExploreOptions{Seed: 1, Iters: iters(150, 600), MaxViolations: 100}
	unsafeRC := RuntimeConfig{Label: "STM-unsafe", Stack: "STM", STMUnsafe: true, Isolation: IsolationWeak}
	safeRC := RuntimeConfig{Label: "STM", Stack: "STM", Isolation: IsolationWeak}

	if res := Explore(tt, unsafeRC, opts); len(res.Violations) == 0 {
		t.Errorf("privatization-unsafe STM no longer reproduces the zombie-writeback violation; "+
			"the regression pin has gone stale (observed %v)", SortedOutcomes(setOf(res.Outcomes)))
	}
	if res := Explore(tt, safeRC, opts); len(res.Violations) != 0 {
		for _, v := range res.Violations {
			t.Errorf("privatization-safe STM: %s", v)
		}
	}
}

// TestReplay: the (seed, iteration) pair in a violation message is a real
// replay pointer — rerunning reproduces the identical outcome and commit
// order for every outcome the exploration observed.
func TestReplay(t *testing.T) {
	tt := ByName("store-buffering")
	rc := Matrix()[2] // HyTM-256
	opts := ExploreOptions{Seed: 5, Iters: iters(60, 150)}
	res := Explore(tt, rc, opts)
	for out, first := range res.FirstIter {
		rec := Replay(tt, rc, opts, first)
		if rec.Outcome != out || rec != res.Trace[first] {
			t.Errorf("replay of iter %d: got %+v, want %+v", first, rec, res.Trace[first])
		}
	}
}
