package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"time"

	"asfstack/internal/harness"
)

// measurePasses runs untraced passes of the workload until the next one
// would overrun seconds (at least one pass).
func measurePasses(w workload, pin digests, seconds float64) ([]pass, error) {
	start := time.Now()
	var passes []pass
	for {
		p, err := measurePass(w, pin)
		if err != nil {
			return nil, err
		}
		passes = append(passes, p)
		if time.Since(start).Seconds()+p.WallS > seconds {
			return passes, nil
		}
	}
}

// measurePass runs one untraced sweep from a freshly collected heap and
// measures it; encoding and the digest check happen after the clock stops.
func measurePass(w workload, pin digests) (pass, error) {
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0, gc0 := cpuSeconds(), readGCCPU()
	t := time.Now()
	reps, err := w.sweep()
	wall := time.Since(t)
	cpu1, gc1 := cpuSeconds(), readGCCPU()
	runtime.ReadMemStats(&ms1)
	if err != nil {
		return pass{}, err
	}

	t = time.Now()
	if _, err := json.Marshal(reps); err != nil {
		return pass{}, err
	}
	p := pass{
		WallS:    wall.Seconds(),
		CPUS:     cpu1 - cpu0,
		AllocB:   ms1.TotalAlloc - ms0.TotalAlloc,
		Mallocs:  ms1.Mallocs - ms0.Mallocs,
		EncodeS:  time.Since(t).Seconds(),
		GCCPUPct: ratio(100*(gc1.gc-gc0.gc), gc1.busy-gc0.busy),
		CellMS:   cellWalls(reps),
		Work:     countWork(reps),
	}
	p.Check, err = pin.verify(reps)
	return p, err
}

// measureTraced runs one sweep under a CPU profile and folds the profile
// into modules.
func measureTraced(w workload, pin digests) (traced, error) {
	runtime.GC()
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return traced{}, err
	}
	t := time.Now()
	reps, err := w.sweep()
	wall := time.Since(t)
	pprof.StopCPUProfile()
	if err != nil {
		return traced{}, err
	}
	prof, err := parseProfile(buf.Bytes())
	if err != nil {
		return traced{}, err
	}
	tr := traced{WallS: wall.Seconds(), ModuleNS: prof.fold(), Work: countWork(reps)}
	tr.Check, err = pin.verify(reps)
	return tr, err
}

func cellWalls(reps []*harness.ExperimentReport) []float64 {
	var ms []float64
	for _, rep := range reps {
		for _, c := range rep.Cells {
			ms = append(ms, c.Host.WallMS)
		}
	}
	return ms
}

// cpuSeconds is this process's user+system CPU time, every thread included.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

type gcCPU struct{ gc, busy float64 }

// readGCCPU reads the runtime's estimate of CPU seconds spent in GC and
// spent busy at all (available minus idle).
func readGCCPU() gcCPU {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(s)
	return gcCPU{gc: s[0].Value.Float64(), busy: s[1].Value.Float64() - s[2].Value.Float64()}
}

// peakRSSMB is the process's peak resident set (VmHWM), or 0 where
// /proc is unavailable.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}
