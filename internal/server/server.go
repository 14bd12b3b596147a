// Package server is the open-loop transactional server workload (E16):
// a vacation-style reservation service driven by per-core client sessions
// whose requests arrive on a pre-drawn open-loop schedule — Zipf-skewed
// keys, bursty on/off arrivals — independent of how fast the server
// commits. The measured quantity is per-request sojourn time (arrival to
// commit, simulated cycles), reported as p50/p95/p99/p999; under overload
// the queues grow and the tail shows it, which is exactly the behaviour a
// closed-loop throughput experiment (Fig. 5) structurally cannot exhibit.
package server

import (
	"fmt"
	"math"

	"asfstack"
	"asfstack/internal/mem"
	"asfstack/internal/metrics"
	"asfstack/internal/sim"
	"asfstack/internal/tm"
	"asfstack/internal/txlib"
)

// baseServiceCycles is the nominal per-request service time that defines
// Load = 1.0: one request per core every baseServiceCycles cycles. It is a
// calibration constant, not a measurement — actual service time varies by
// runtime and contention, so the true saturation point of each runtime sits
// at a different Load (that spread is what E16's overload cells probe).
const baseServiceCycles = 25_000

// waitChunk bounds one idle step of a session waiting for its next
// arrival, so pending timers and asynchronous aborts keep being delivered.
const waitChunk = 1_000

// Config describes one server run: the machine spec plus the client
// population and its offered load.
type Config struct {
	asfstack.Options
	// RequestsPerCore is each session's measured request count (default
	// 200 × Scale).
	RequestsPerCore int
	// Load is the offered load per core as a fraction of the nominal
	// service rate 1/baseServiceCycles (default 0.7). Values ≥ ~1 drive
	// the server into overload: arrivals outpace commits and sojourn time
	// grows with queue depth.
	Load float64
	// ZipfS is the key-skew exponent of the item-id distribution (> 1;
	// default 1.2 — a hot head with a long cold tail).
	ZipfS float64
	// Scale multiplies store size and default request count (1.0 when
	// zero); used by tests and CI smoke to shrink runs.
	Scale float64
}

// Result carries the measurements of a run.
type Result struct {
	Config Config
	asfstack.RunResult
	Requests uint64 // completed requests (== sessions × RequestsPerCore)

	// Sojourn-time quantiles (arrival → commit, simulated cycles),
	// interpolated from the server/sojourn_cyc histogram.
	P50, P95, P99, P999 float64
}

// world is the server's shared store plus the per-core session queues.
// Layout follows STAMP's vacation: an item table (id → one-line record
// {total, avail, price}) and a customer table (id → reservation list
// head), both red-black trees.
type world struct {
	cfg       Config
	items     int
	customers int

	itemTree *txlib.RBTree
	custTree *txlib.RBTree

	queues []*reqQueue

	sojourn metrics.Histogram
}

// Item record layout (one line): word 0 total, 1 avail, 2 price.
const (
	itTotal = 0
	itAvail = 1
	itPrice = 2
)

func (w *world) setup(tx tm.Tx) {
	rng := tx.CPU().Rand()
	w.itemTree = txlib.NewRBTree(tx)
	w.custTree = txlib.NewRBTree(tx)
	for id := 0; id < w.items; id++ {
		rec := tx.AllocLines(1)
		n := mem.Word(2 + rng.Intn(6))
		tx.Store(rec+itTotal*8, n)
		tx.Store(rec+itAvail*8, n)
		tx.Store(rec+itPrice*8, mem.Word(100+rng.Intn(400)))
		w.itemTree.Insert(tx, uint64(id), mem.Word(rec))
	}
	for id := 0; id < w.customers; id++ {
		rec := tx.AllocLines(1)
		tx.Store(rec, 0) // empty reservation list
		w.custTree.Insert(tx, uint64(id), mem.Word(rec))
	}
}

// session drains core tid's queue: wait (open-loop — the schedule does not
// care how busy the server is) until each request's arrival, execute its
// transaction, record the sojourn. start is the measured phase's start
// cycle, making arrivals absolute.
//
// The core builds its three atomic bodies once, over a request slot that
// the loop refills. Every runtime returns from Atomic after the body's final
// execution and re-runs the same func value on retry, so each execution
// sees the request it serves.
func (w *world) session(s *asfstack.Stack, c *sim.CPU, start uint64) {
	q := w.queues[c.ID()]
	var rq request
	reserve := func(tx tm.Tx) { w.reserve(tx, &rq) }
	cancel := func(tx tm.Tx) { w.cancel(tx, &rq) }
	update := func(tx tm.Tx) { w.update(tx, &rq) }
	for {
		var ok bool
		if rq, ok = q.pop(); !ok {
			return
		}
		target := start + rq.arrival
		for {
			now := c.Now()
			if now >= target {
				break
			}
			gap := target - now
			if gap > waitChunk {
				gap = waitChunk
			}
			// Quiescent wait: no transaction is in flight, so runtimes
			// tracking per-core liveness (cohort sealing) may drain.
			c.IdleHint()
			c.Cycles(gap)
		}
		switch rq.kind {
		case opReserve:
			s.Atomic(c, reserve)
		case opCancel:
			s.Atomic(c, cancel)
		default:
			s.Atomic(c, update)
		}
		w.sojourn.Observe(c.ID(), c.Now()-target)
	}
}

// reserve queries the request's pre-drawn items and reserves the cheapest
// available one for the customer: the body of one atomic block, as in
// vacation.
func (w *world) reserve(tx tm.Tx, rq *request) {
	crec, ok := w.custTree.Get(tx, uint64(rq.cust))
	if !ok {
		return
	}
	bestID, bestRec, bestPrice := uint64(0), mem.Word(0), ^uint64(0)
	for _, id := range rq.items[:rq.nq] {
		rec, ok := w.itemTree.Get(tx, uint64(id))
		if !ok {
			continue
		}
		r := mem.Addr(rec)
		if tx.Load(r+itAvail*8) == 0 {
			continue
		}
		if price := uint64(tx.Load(r + itPrice*8)); price < bestPrice {
			bestID, bestRec, bestPrice = uint64(id), rec, price
		}
	}
	if bestRec == 0 {
		return
	}
	r := mem.Addr(bestRec)
	tx.Store(r+itAvail*8, tx.Load(r+itAvail*8)-1)
	// Prepend a reservation node (word 0 next, 1 item id) to the
	// customer's list.
	node := tx.Alloc(16)
	tx.Store(node+8, mem.Word(bestID))
	tx.Store(node, tx.Load(mem.Addr(crec)))
	tx.Store(mem.Addr(crec), mem.Word(node))
}

// cancel releases all of the customer's reservations.
func (w *world) cancel(tx tm.Tx, rq *request) {
	crec, ok := w.custTree.Get(tx, uint64(rq.cust))
	if !ok {
		return
	}
	head := mem.Addr(crec)
	cur := mem.Addr(tx.Load(head))
	for cur != 0 {
		id := uint64(tx.Load(cur + 8))
		if rec, ok := w.itemTree.Get(tx, id); ok {
			r := mem.Addr(rec)
			tx.Store(r+itAvail*8, tx.Load(r+itAvail*8)+1)
		}
		next := mem.Addr(tx.Load(cur))
		tx.Free(cur)
		cur = next
	}
	tx.Store(head, 0)
}

// update re-prices the request's items and occasionally adds capacity.
func (w *world) update(tx tm.Tx, rq *request) {
	for _, id := range rq.items[:rq.nq] {
		rec, ok := w.itemTree.Get(tx, uint64(id))
		if !ok {
			continue
		}
		r := mem.Addr(rec)
		tx.Store(r+itPrice*8, mem.Word(rq.price))
		if rq.grow {
			tx.Store(r+itTotal*8, tx.Load(r+itTotal*8)+1)
			tx.Store(r+itAvail*8, tx.Load(r+itAvail*8)+1)
		}
	}
}

// validate checks conservation: every item's avail plus outstanding
// reservations equals its total.
func (w *world) validate(tx tm.Tx) error {
	reserved := map[uint64]uint64{}
	for id := 0; id < w.customers; id++ {
		crec, ok := w.custTree.Get(tx, uint64(id))
		if !ok {
			return fmt.Errorf("customer %d missing", id)
		}
		cur := mem.Addr(tx.Load(mem.Addr(crec)))
		for cur != 0 {
			reserved[uint64(tx.Load(cur+8))]++
			cur = mem.Addr(tx.Load(cur))
		}
	}
	for id := 0; id < w.items; id++ {
		rec, ok := w.itemTree.Get(tx, uint64(id))
		if !ok {
			return fmt.Errorf("item %d missing", id)
		}
		r := mem.Addr(rec)
		total := uint64(tx.Load(r + itTotal*8))
		avail := uint64(tx.Load(r + itAvail*8))
		if avail+reserved[uint64(id)] != total {
			return fmt.Errorf("item %d: avail %d + reserved %d != total %d",
				id, avail, reserved[uint64(id)], total)
		}
	}
	return nil
}

// Run executes one configuration to completion and validates the store.
// Zero Load, ZipfS, Scale and RequestsPerCore take their defaults; a
// negative or non-finite value, or a ZipfS in (0, 1], is an error.
func Run(cfg Config) (Result, error) {
	for _, f := range []struct {
		name string
		v    float64
	}{{"load", cfg.Load}, {"zipf exponent", cfg.ZipfS}, {"scale", cfg.Scale}} {
		if f.v < 0 || math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return Result{}, fmt.Errorf("server: %s %v: want a finite number >= 0 (0 = default)", f.name, f.v)
		}
	}
	if cfg.ZipfS > 0 && cfg.ZipfS <= 1 {
		return Result{}, fmt.Errorf("server: zipf exponent %v: want > 1 (0 = default)", cfg.ZipfS)
	}
	if cfg.RequestsPerCore < 0 {
		return Result{}, fmt.Errorf("server: negative requests per core %d", cfg.RequestsPerCore)
	}
	scale := cfg.Scale
	if scale == 0 {
		scale = 1
	}
	if cfg.Load == 0 {
		cfg.Load = 0.7
	}
	if cfg.ZipfS == 0 {
		cfg.ZipfS = 1.2
	}
	if cfg.RequestsPerCore == 0 {
		cfg.RequestsPerCore = int(200 * scale)
		if cfg.RequestsPerCore < 4 {
			cfg.RequestsPerCore = 4
		}
	}
	s, err := asfstack.Build(cfg.Options)
	if err != nil {
		return Result{}, err
	}
	// The schedule generator seeds from cfg.Seed: it must see the
	// machine's resolved seed.
	cfg.Options = s.Opts

	w := &world{
		cfg:       cfg,
		items:     max(int(256*scale), 8),
		customers: max(int(128*scale), 4),
	}
	// Register the sojourn histogram before the registry seals (first
	// record). Bounds reach 2^27 cycles — deep overload territory — before
	// the overflow bucket.
	w.sojourn = s.Metrics.Histogram("server/sojourn_cyc", metrics.PowersOfTwo(28))

	// Pre-draw every session's schedule on the host: arrivals are fixed
	// before the server starts, the definition of open loop.
	w.queues = make([]*reqQueue, cfg.Cores)
	for i := range w.queues {
		w.queues[i] = w.generate(i)
	}

	s.Setup(func(tx tm.Tx) { w.setup(tx) })

	res := Result{Config: cfg, RunResult: s.Measure(func(c *sim.CPU, start uint64) {
		w.session(s, c, start)
	})}
	res.Requests = uint64(cfg.Cores * cfg.RequestsPerCore)
	if hs, ok := res.Metrics.Histogram("server/sojourn_cyc"); ok {
		res.P50 = hs.Quantile(0.50)
		res.P95 = hs.Quantile(0.95)
		res.P99 = hs.Quantile(0.99)
		res.P999 = hs.Quantile(0.999)
	}

	var verr error
	s.Setup(func(tx tm.Tx) { verr = w.validate(tx) })
	if verr != nil {
		return res, fmt.Errorf("server %s/%s load=%.2f: validation: %w",
			cfg.Runtime, cfg.Topology, cfg.Load, verr)
	}
	return res, nil
}
