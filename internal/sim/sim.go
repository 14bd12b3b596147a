// Package sim is the deterministic multicore simulator the ASF stack runs
// on. It plays the role PTLsim-ASF plays in the paper: it executes workload
// threads against a simulated memory hierarchy with near-cycle-level cost
// accounting, models the OS events that matter to ASF (timer interrupts,
// demand-paging faults, system calls), and provides the hook points the ASF
// architectural extension (package asf) plugs into.
//
// # Execution model
//
// Each simulated core runs its thread body inside a coroutine (iter.Pull);
// the goroutine that called Run drives them. Every memory operation is
// globally ordered: the core with the smallest local cycle clock (ties
// broken by core id) performs exactly one operation against the shared
// simulator state, advances its clock by the operation's latency, and
// yields. Because at most one core ever holds the turn, all simulator state
// is single-threaded and runs are bit-for-bit reproducible for a given seed.
//
// Scheduling decisions are not brokered by the driver: each grant carries a
// *run-ahead lease* — "run until your clock reaches the earliest waiting
// core's clock" — taken from an index min-heap of waiting cores keyed by
// (clock, id). While the lease holds, the core would be re-picked on every
// yield anyway, so it simply keeps executing with no synchronization at
// all; when the lease expires it pushes itself into the heap, pops the new
// minimum, names that core as the driver's next resume target, and yields.
// The driver loop is a single indirect call: resume whichever core the last
// one granted. Hand-offs ride runtime coroutine switches (no channels, no
// scheduler queues, no parking), which cost a fraction of a goroutine
// round-trip through the run queue — the dominant host cost at high core
// counts, where near-lockstep clocks force a hand-off on almost every
// operation.
//
// Pure compute (Exec/Cycles) is batched locally and folded into the clock at
// the next rendezvous, so simulation cost is proportional to the number of
// memory operations, not instructions.
//
// When only one runnable core remains its lease is unbounded — the old
// free-running "solo" special case falls out of the lease rule — and
// single-threaded configurations (sequential baselines, Table 1) simulate
// at full speed.
package sim

import (
	"fmt"
	"iter"
	"sync/atomic"

	"asfstack/internal/cache"
	"asfstack/internal/mem"
	"asfstack/internal/topo"
)

// Config describes the simulated machine.
type Config struct {
	Cores   int
	ClockHz uint64 // core clock; the paper simulates 2.2 GHz

	Cache cache.Config

	// Topology partitions the cores into sockets (e.g. topo "2x8": two
	// sockets of eight cores, each with its own L3 slice, cross-socket
	// directory hops charged per cache.Config.XSockLat). The zero value
	// keeps the paper's single-socket machine. When set, Total() must
	// equal Cores; New validates and copies the socket count into the
	// cache configuration.
	Topology topo.Topology

	IssueWidth int // superscalar width for Exec batching (Barcelona: 3)

	// OS model.
	TimerInterval uint64 // cycles between timer interrupts (0 disables)
	InterruptCost uint64 // kernel entry/exit per interrupt
	PageFaultCost uint64 // minor-fault handling
	SyscallCost   uint64 // base cost of a system call

	Seed int64

	// SchedNoise enables schedule exploration: every globally ordered
	// operation is preceded by a pseudo-random stall of up to SchedNoise
	// cycles, drawn from a dedicated per-core stream derived from Seed.
	// Different seeds then produce different interleavings while each seed
	// remains bit-for-bit replayable — the litmus explorer's knob. The
	// stalls pollute the cycle accounting, so exploration runs are not
	// measurement runs. Zero (the default) keeps the scheduler purely
	// clock-driven and byte-identical to previous behaviour.
	SchedNoise uint64
}

// Barcelona returns the machine configuration used for all measurements in
// the paper: eight 2.2 GHz cores behaving as if on one socket.
func Barcelona(cores int) Config {
	return Config{
		Cores:         cores,
		ClockHz:       2_200_000_000,
		Cache:         cache.Barcelona(),
		IssueWidth:    3,
		TimerInterval: 2_200_000, // 1 ms OS tick
		InterruptCost: 2_000,
		PageFaultCost: 2_500,
		SyscallCost:   300,
		Seed:          42,
	}
}

// NativeReference returns the calibration standing in for the paper's
// native Barcelona machine in the Fig. 3 accuracy experiment. Real hardware
// differs from the simulator in ways PTLsim cannot capture (prefetchers,
// store TLB behaviour, finer pipelining); this model differs from
// Barcelona() along the same axes so the accuracy experiment exercises the
// same code path: two timing models compared per benchmark.
func NativeReference(cores int) Config {
	cfg := Barcelona(cores)
	cfg.Cache.MemLat = 180 // hardware prefetch hides part of DRAM latency
	cfg.Cache.C2CLat = 100
	cfg.Cache.L2Lat = 12
	cfg.Cache.StoresUseTLB = true // real hardware translates stores
	cfg.IssueWidth = 3
	return cfg
}

// Scheduling keys pack (clock, id) into one uint64 so the min-heap compares
// a single word: clock in the high bits, core id in the low coreBits. The
// lexicographic (clock, id) order the engine has always used is exactly
// numeric order on the packed key.
const (
	coreBits = 6
	coreMask = (1 << coreBits) - 1

	// leaseFree is the unbounded lease granted when no other core is
	// waiting: every key compares below it, so the holder never yields.
	leaseFree = ^uint64(0)
)

// Machine is one simulated system: memory, caches, cores, and OS model.
type Machine struct {
	cfg  Config
	Mem  *mem.Memory
	Hier *cache.Hierarchy
	cpus []*CPU

	hook AccessHook

	// idleHook, when set, is invoked by CPU.IdleHint — a cooperative
	// quiescence annotation (RCU-style) that long non-transactional spin
	// loops (barriers) and thread exits call so a runtime that tracks
	// per-core liveness can observe the core as quiescent. Set before Run.
	idleHook func(*CPU)

	// Scheduling state. Only ever touched single-threaded: by the core
	// holding the turn, or by the driver between resumes.
	runnable   int
	heap       []uint64 // packed (clock<<coreBits|id) keys of waiting cores
	resume     int      // core id the driver resumes next (set by grant)
	collecting bool     // Run's startup sweep is in progress; no grants yet

	closed atomic.Bool

	running atomic.Bool // a Run call is in flight

	failure any // first workload panic, re-raised after shutdown
}

// AccessHook observes every memory access from every core after the cache
// model has charged latency and before data moves. The ASF system installs
// its conflict-detection and read/write-set tracking here. The hook may
// abort the accessing core (via CPU.RaiseAbort) or other cores (via their
// speculative unit).
type AccessHook func(c *CPU, addr mem.Addr, f Flags)

// Flags qualifies a memory access for the AccessHook.
type Flags uint8

const (
	FWrite  Flags = 1 << iota // store (or the store half of an RMW)
	FLocked                   // carries the LOCK prefix (ASF speculative)
	FWatch                    // WATCHR/WATCHW: monitor only, no data use
	FAtomic                   // part of an atomic read-modify-write

	// FPre marks the first of the two hook invocations per access: the
	// coherence-probe phase, before the cache model moves any line.
	// Conflict resolution (requester wins) happens here, so a conflicting
	// region is rolled back — and its speculative marks cleared — before
	// the access's fills and invalidations can displace them. The second
	// invocation (without FPre) runs after the cache access, for
	// read/write-set tracking.
	FPre
)

// MaxCores is the machine-size cap: core ids must fit the packed
// scheduling keys (coreBits) and the coherence bitmasks (one uint64).
const MaxCores = 64

// New builds a machine. Thread bodies are supplied to Run.
func New(cfg Config) *Machine {
	if cfg.Cores <= 0 || cfg.Cores > MaxCores {
		panic(fmt.Sprintf("sim: bad core count %d", cfg.Cores))
	}
	if cfg.IssueWidth <= 0 {
		cfg.IssueWidth = 3
	}
	if !cfg.Topology.IsZero() {
		if cfg.Topology.Total() != cfg.Cores {
			panic(fmt.Sprintf("sim: topology %s has %d cores, config has %d",
				cfg.Topology, cfg.Topology.Total(), cfg.Cores))
		}
		cfg.Cache.Sockets = cfg.Topology.Sockets
		if cfg.Topology.Sockets > 1 && cfg.Cache.XSockLat == 0 {
			// Resolve the default here too so Config() readers (the ASF
			// conflict-probe charging) see the effective latency.
			cfg.Cache.XSockLat = cache.DefaultXSockLat
		}
	}
	m := &Machine{
		cfg:  cfg,
		Mem:  mem.New(),
		Hier: cache.New(cfg.Cores, cfg.Cache),
		heap: make([]uint64, 0, cfg.Cores),
	}
	for i := 0; i < cfg.Cores; i++ {
		m.cpus = append(m.cpus, newCPU(m, i))
	}
	return m
}

// Config returns the machine configuration.
func (m *Machine) Config() Config { return m.cfg }

// Running reports whether a Run call is in flight. Statistics and metric
// snapshots are only coherent at barriers — between Run calls — and the
// stack's snapshot paths enforce that with this flag.
func (m *Machine) Running() bool { return m.running.Load() }

// CPU returns core i's handle (for pre-run setup such as installing
// speculative units).
func (m *Machine) CPU(i int) *CPU { return m.cpus[i] }

// SetAccessHook installs the machine-wide memory access hook.
func (m *Machine) SetAccessHook(h AccessHook) { m.hook = h }

// SetIdleHook installs the cooperative-quiescence callback CPU.IdleHint
// invokes. Install before Run; nil disables (IdleHint becomes free).
func (m *Machine) SetIdleHook(h func(*CPU)) { m.idleHook = h }

// CyclesToNanos converts simulated cycles to simulated nanoseconds.
func (m *Machine) CyclesToNanos(cy uint64) float64 {
	return float64(cy) / float64(m.cfg.ClockHz) * 1e9
}

// Close marks the machine shut down. The machine cannot Run again
// afterwards. Idempotent. Coroutines live only inside a Run call, so there
// is nothing to tear down; Close exists to catch use-after-close bugs.
func (m *Machine) Close() {
	if m.closed.Swap(true) {
		return
	}
	if m.running.Load() {
		panic("sim: Close while a Run call is in flight")
	}
}

// Run executes one thread body per core (len(bodies) ≤ Cores) to completion
// and returns the simulated duration in cycles (the maximum core clock).
// It may be called repeatedly; cores keep their clocks across calls so a
// setup phase can be run before a measured phase.
//
// Run is the scheduler's driver: each body runs inside a coroutine, and the
// loop below simply resumes whichever core the previous one granted the
// turn to. All scheduling decisions (heap, leases) happen inside the cores;
// the driver only supplies the switch points.
func (m *Machine) Run(bodies ...func(c *CPU)) uint64 {
	if len(bodies) > len(m.cpus) {
		panic("sim: more thread bodies than cores")
	}
	if m.closed.Load() {
		panic("sim: Run on a closed machine")
	}
	m.running.Store(true)
	defer m.running.Store(false)
	m.runnable = len(bodies)
	m.heap = m.heap[:0]
	if len(bodies) > 0 {
		nexts := make([]func() (struct{}, bool), len(bodies))
		stops := make([]func(), len(bodies))
		for i, body := range bodies {
			c := m.cpus[i]
			c.running = true
			c.holding = false
			c.checkedIn = false
			c.leaseKey = 0
			body := body
			nexts[i], stops[i] = iter.Pull(func(yield func(struct{}) bool) {
				c.yield = yield
				c.runBody(body)
			})
		}
		// Defensive teardown: on the normal path every coroutine has
		// already returned and stop is a no-op; if the driver unwinds
		// early (a scheduler bug), parked cores get errRunStopped.
		defer func() {
			for _, stop := range stops {
				stop()
			}
		}()
		// Startup barrier: run every core to its first yield — its first
		// operation (which pushes its key), or its finish if the body
		// performs none. Only then is the minimum well defined and the
		// first turn granted; from that point the cores schedule
		// themselves and the driver just follows the grants.
		m.collecting = true
		for i := range bodies {
			nexts[i]()
		}
		m.collecting = false
		if m.runnable > 0 {
			m.grant(m.heapPop())
			for m.runnable > 0 {
				nexts[m.resume]()
			}
		}
	}
	if m.failure != nil {
		f := m.failure
		m.failure = nil
		panic(f)
	}
	var maxNow uint64
	for _, c := range m.cpus {
		if c.everRan && c.now > maxNow {
			maxNow = c.now
		}
	}
	return maxNow
}

// grant hands the turn to the core identified by the packed key, attaching
// its run-ahead lease: the key of the earliest core left waiting (or
// leaseFree when none is). The grantee runs when the granter yields and the
// driver resumes it.
func (m *Machine) grant(key uint64) {
	c := m.cpus[key&coreMask]
	if len(m.heap) > 0 {
		c.leaseKey = m.heap[0]
	} else {
		c.leaseKey = leaseFree
	}
	m.resume = c.id
}

// SyncClocks aligns every core's clock to the latest one — the barrier
// between a setup phase and the measured phase — and returns the common
// time. Must be called between Run invocations.
func (m *Machine) SyncClocks() uint64 {
	var maxNow uint64
	for _, c := range m.cpus {
		if c.now > maxNow {
			maxNow = c.now
		}
	}
	for _, c := range m.cpus {
		c.now = maxNow
		if m.cfg.TimerInterval > 0 {
			c.nextTimer = maxNow + m.cfg.TimerInterval
		}
	}
	return maxNow
}

// ResetAllCounters zeroes every core's per-category cycle counters (start
// of the measured phase).
func (m *Machine) ResetAllCounters() {
	for _, c := range m.cpus {
		c.ResetCounters()
	}
}

// --- waiting-core min-heap ----------------------------------------------

// The heap holds one packed key per waiting core. Push and pop are the
// only operations; both run under the turn token (or during Run's startup,
// before any token exists).

func (m *Machine) heapPush(k uint64) {
	h := append(m.heap, k)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h[p] <= h[i] {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
	m.heap = h
}

// heapPushPop is heapPush(k) followed by heapPop(), fused into a single
// sift-down: when k belongs below the current minimum (the common case — a
// core whose lease just expired has a later clock than the earliest waiter),
// the minimum is replaced by k in one traversal instead of two.
func (m *Machine) heapPushPop(k uint64) uint64 {
	h := m.heap
	n := len(h)
	if n == 0 || k <= h[0] {
		return k
	}
	top := h[0]
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		if r := l + 1; r < n && h[r] < h[l] {
			l = r
		}
		if k <= h[l] {
			break
		}
		h[i] = h[l]
		i = l
	}
	h[i] = k
	return top
}

func (m *Machine) heapPop() uint64 {
	h := m.heap
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		if r := l + 1; r < n && h[r] < h[l] {
			l = r
		}
		if h[i] <= h[l] {
			break
		}
		h[i], h[l] = h[l], h[i]
		i = l
	}
	m.heap = h
	return top
}
