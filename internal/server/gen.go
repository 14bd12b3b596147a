package server

import (
	"math"
	"math/rand"
)

// Request kinds, in mix order.
const (
	opReserve = iota // query items, reserve the cheapest available
	opCancel         // release all of one customer's reservations
	opUpdate         // re-price (and occasionally grow) items
)

// request is one pre-drawn client request: its absolute arrival offset
// (simulated cycles after the measured phase starts) and every random
// choice its transaction body needs, fixed at generation time so retries
// and runtimes all see the same task. The struct is a flat value — the
// steady-state queue path moves it without allocating.
type request struct {
	arrival uint64 // cycles after measured-phase start
	items   [2]uint32
	cust    uint32
	price   uint32
	kind    uint8
	nq      uint8
	grow    bool
}

// reqQueue is the per-core session queue: a fixed-capacity FIFO ring of
// requests. The generator fills it before the measured phase and the
// session thread drains it; both push and pop are allocation-free (the CI
// alloc gate pins this).
type reqQueue struct {
	buf  []request
	head int // next pop
	tail int // next push
	n    int
}

func newReqQueue(capacity int) *reqQueue {
	if capacity < 1 {
		capacity = 1
	}
	return &reqQueue{buf: make([]request, capacity)}
}

// push appends r; reports false when the ring is full.
func (q *reqQueue) push(r request) bool {
	if q.n == len(q.buf) {
		return false
	}
	q.buf[q.tail] = r
	q.tail++
	if q.tail == len(q.buf) {
		q.tail = 0
	}
	q.n++
	return true
}

// pop removes the oldest request; ok is false when the queue is empty.
func (q *reqQueue) pop() (r request, ok bool) {
	if q.n == 0 {
		return request{}, false
	}
	r = q.buf[q.head]
	q.head++
	if q.head == len(q.buf) {
		q.head = 0
	}
	q.n--
	return r, true
}

func (q *reqQueue) len() int { return q.n }

// Arrival process parameters. A burst draws its length from a bounded
// Pareto (heavy-ish tail, but capped so one burst cannot swallow a whole
// run) and its inter-arrivals at twice the nominal rate; the off gap after
// each burst restores the long-run mean, so offered load is exactly
// Load × (baseServiceCycles)⁻¹ requests per cycle per core while arrivals
// still clump the way open-loop clients do.
const (
	burstMin   = 1.0
	burstMax   = 32.0
	burstAlpha = 1.5
)

// boundedPareto draws from a Pareto(alpha) truncated to [lo, hi] by
// inverse-CDF.
func boundedPareto(rng *rand.Rand, lo, hi, alpha float64) float64 {
	u := rng.Float64()
	la, ha := math.Pow(lo, alpha), math.Pow(hi, alpha)
	return math.Pow(-(u*ha-u*la-ha)/(ha*la), -1/alpha)
}

// generate pre-draws core's request stream: RequestsPerCore requests with
// absolute arrival offsets and fully-determined transaction bodies. It
// runs on the host before the measured phase — its determinism depends
// only on the config, never on worker count or execution order.
func (w *world) generate(core int) *reqQueue {
	cfg := w.cfg
	// Independent stream per core, decoupled from the simulator's own
	// per-core RNGs (which the workload bodies never touch). Seeding sets
	// the whole generator state, so the cores share one generator.
	seed := cfg.Seed*0x9E3779B9 + int64(core)*0x85EBCA77 + 1
	if w.rng == nil {
		w.rng = rand.New(rand.NewSource(seed))
	} else {
		w.rng.Seed(seed)
	}
	rng := w.rng
	zipf := rand.NewZipf(rng, zipfS, 1, uint64(w.items-1))

	q := newReqQueue(cfg.RequestsPerCore)
	mean := float64(baseServiceCycles) / cfg.Load
	var clock float64 // arrival clock, cycles
	burst := boundedPareto(rng, burstMin, burstMax, burstAlpha)
	var inBurst float64
	for i := 0; i < cfg.RequestsPerCore; i++ {
		gap := rng.ExpFloat64() * mean / 2 // on-phase: twice the nominal rate
		inBurst++
		if inBurst >= burst {
			// Off gap: what the burst saved against the nominal mean.
			gap += inBurst * mean / 2
			burst = boundedPareto(rng, burstMin, burstMax, burstAlpha)
			inBurst = 0
		}
		clock += gap
		r := request{arrival: uint64(clock)}
		mix := rng.Intn(100)
		switch {
		case mix < 60:
			r.kind = opReserve
			r.nq = 2
			r.cust = uint32(rng.Intn(w.customers))
			for j := range r.items {
				r.items[j] = uint32(zipf.Uint64())
			}
		case mix < 80:
			r.kind = opCancel
			r.cust = uint32(rng.Intn(w.customers))
		default:
			r.kind = opUpdate
			r.nq = uint8(1 + rng.Intn(2))
			r.price = uint32(100 + rng.Intn(400))
			r.grow = rng.Intn(8) == 0
			for j := 0; j < int(r.nq); j++ {
				r.items[j] = uint32(zipf.Uint64())
			}
		}
		q.push(r)
	}
	return q
}
