package tm

import (
	"asfstack/internal/mem"
	"asfstack/internal/sim"
)

// The runtime toolkit: the pieces every TM runtime of the stack needs
// beside its own algorithm — per-core outcome counters, the software
// longjmp, randomised back-off and the simulated log space. Each runtime
// keeps only its protocol and takes these from here.

// StatsTable is the per-core outcome counters a runtime embeds to
// implement Runtime.Stats and Runtime.ResetStats. The runtime updates
// &table[core] from that core's goroutine.
type StatsTable []Stats

// Stats implements Runtime.Stats.
func (t StatsTable) Stats(core int) Stats { return t[core] }

// ResetStats implements Runtime.ResetStats.
func (t StatsTable) ResetStats() { clear(t) }

// unwind is the panic value of a software abort: the longjmp back to the
// begin of the attempt running on core (TinySTM's siglongjmp).
type unwind struct{ core int }

// Unwind abandons the software attempt running on core c: control returns
// to the Attempt call that started it, which reports false. It never
// returns.
func Unwind(c *sim.CPU) { panic(unwind{core: c.ID()}) }

// Attempt runs one software attempt on core c and reports whether run
// completed (true) or was abandoned by Unwind on c (false). Any other
// panic, another core's unwind included, propagates.
func Attempt(c *sim.CPU, run func()) (completed bool) {
	defer func() {
		if completed {
			return
		}
		rec := recover()
		if rec == nil {
			return
		}
		if u, ok := rec.(unwind); !ok || u.core != c.ID() {
			panic(rec)
		}
	}()
	run()
	return true
}

// Backoff spins core c for a random delay of 1..limit cycles, one draw of
// the core's generator, where limit is base doubled once per attempt (at
// most maxShift times) and capped at max. It returns the delay, for the
// runtime's back-off histogram.
func Backoff(c *sim.CPU, attempt int, base uint64, maxShift int, max uint64) uint64 {
	limit := min(base<<uint(min(attempt, maxShift)), max)
	delay := uint64(c.Rand().Int63n(int64(limit))) + 1
	c.Cycles(delay)
	return delay
}

// logHalf is the size of each of a LogSpace's two logs.
const logHalf = 128 << 10

// LogSpace is one core's simulated-memory backing for a software
// runtime's read and write logs, 128 KiB each, so that every log append
// charges a real store. The logs stay cache-hot, like TinySTM's malloc'd
// arrays. A slot index wraps within its log: the charge is what matters,
// not the contents.
type LogSpace struct{ base mem.Addr }

// NewLogSpace lays out one core's logs in layout's space and prefaults
// them: a runtime allocates its logs at startup.
func NewLogSpace(m *mem.Memory, layout *mem.Layout) LogSpace {
	base, end := layout.Region(2 * logHalf)
	m.Prefault(base, uint64(end-base))
	return LogSpace{base: base}
}

// ReadSlot returns the address of entry i of the read log, whose entries
// are stride bytes apart.
func (l LogSpace) ReadSlot(i int, stride uint64) mem.Addr {
	return l.base + mem.Addr(uint64(i)*stride&(logHalf-1))
}

// WriteSlot returns the address of entry i of the write log, whose entries
// are stride bytes apart.
func (l LogSpace) WriteSlot(i int, stride uint64) mem.Addr {
	return l.base + logHalf + mem.Addr(uint64(i)*stride&(logHalf-1))
}
