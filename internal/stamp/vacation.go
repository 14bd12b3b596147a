package stamp

import (
	"fmt"

	"asfstack"
	"asfstack/internal/mem"
	"asfstack/internal/sim"
	"asfstack/internal/tm"
	"asfstack/internal/txlib"
)

// vacation emulates a travel reservation system: four red-black-tree
// tables (cars, rooms, flights, customers) queried and updated by client
// transactions. Each client action — make a reservation, delete a
// customer, update tables — is one atomic block spanning several tree
// lookups and record updates, so transactions read a few dozen cache lines:
// comfortable for LLB-256, hopeless for LLB-8 (Fig. 4's vacation panels).
//
// The low/high-contention variants differ in how much of the id space the
// queries hit (90% vs 10%) and the update mix, the same knobs as STAMP's
// vacation-low/high.
type vacation struct {
	relations int
	customers int
	tasks     int // total client tasks, divided among threads
	high      bool

	cars, rooms, flights *txlib.RBTree // id -> item record address
	custTree             *txlib.RBTree // id -> customer record address

	queryRange uint64 // ids drawn from [0, queryRange)
	reservePct int    // % of tasks that make reservations
}

// Item record layout (one line): word 0 total, 1 avail, 2 price.
const (
	itTotal = 0
	itAvail = 1
	itPrice = 2
)

// Customer record (one line): word 0 = reservation list head.
// Reservation node (24 B): word 0 next, 1 table index, 2 item id.

func newVacation(scale float64, high bool) *vacation {
	v := &vacation{
		relations: int(512 * scale),
		customers: int(256 * scale),
		tasks:     int(1600 * scale),
		high:      high,
	}
	if high {
		v.queryRange = uint64(float64(v.relations) * 0.10)
		v.reservePct = 50
	} else {
		v.queryRange = uint64(float64(v.relations) * 0.90)
		v.reservePct = 80
	}
	if v.queryRange < 4 {
		v.queryRange = 4
	}
	return v
}

func (v *vacation) Name() string {
	if v.high {
		return "vacation-high"
	}
	return "vacation-low"
}

func (v *vacation) tables() []*txlib.RBTree {
	return []*txlib.RBTree{v.cars, v.rooms, v.flights}
}

func (v *vacation) Setup(s *asfstack.Stack, tx tm.Tx, threads int) {
	rng := tx.CPU().Rand()
	v.cars = txlib.NewRBTree(tx)
	v.rooms = txlib.NewRBTree(tx)
	v.flights = txlib.NewRBTree(tx)
	v.custTree = txlib.NewRBTree(tx)
	for _, tbl := range v.tables() {
		for id := 0; id < v.relations; id++ {
			rec := tx.AllocLines(1)
			n := mem.Word(1 + rng.Intn(5))
			tx.Store(rec+itTotal*8, n)
			tx.Store(rec+itAvail*8, n)
			tx.Store(rec+itPrice*8, mem.Word(100+rng.Intn(400)))
			tbl.Insert(tx, uint64(id), mem.Word(rec))
		}
	}
	for id := 0; id < v.customers; id++ {
		rec := tx.AllocLines(1)
		tx.Store(rec, 0) // empty reservation list
		v.custTree.Insert(tx, uint64(id), mem.Word(rec))
	}
}

// vacationTask is one client action's pre-drawn choices, drawn on the host
// before the action's atomic block so that retries see the same task. Each
// thread fills its one task in place: queries[t][:nq] are the ids queried
// in table t, ups[:nup] the item updates.
type vacationTask struct {
	cust    uint64
	nq      int
	queries [3][4]uint64
	nup     int
	ups     [3]vacationUpdate
}

type vacationUpdate struct {
	table int
	id    uint64
	price uint64
	grow  bool
}

func (v *vacation) Thread(s *asfstack.Stack, c *sim.CPU, tid, threads int) {
	// Atomic bodies, built once over the task the loop fills (see
	// App.Thread).
	var t vacationTask
	reserve := func(tx tm.Tx) { v.makeReservation(tx, &t) }
	remove := func(tx tm.Tx) { v.deleteCustomer(tx, &t) }
	update := func(tx tm.Tx) { v.updateTables(tx, &t) }
	rng := c.Rand()
	lo, hi := span(v.tasks, tid, threads)
	for i := lo; i < hi; i++ {
		action := rng.Intn(100)
		switch {
		case action < v.reservePct:
			// 2..4 random items per table for a random customer.
			t.cust = uint64(rng.Intn(v.customers))
			t.nq = 2 + rng.Intn(3)
			for tb := range t.queries {
				for q := 0; q < t.nq; q++ {
					t.queries[tb][q] = uint64(rng.Int63n(int64(v.queryRange)))
				}
			}
			s.Atomic(c, reserve)
		case action < v.reservePct+(100-v.reservePct)/2:
			t.cust = uint64(rng.Intn(v.customers))
			s.Atomic(c, remove)
		default:
			// New prices (and occasionally capacity) for 1..3 random
			// items.
			t.nup = 1 + rng.Intn(3)
			for u := range t.ups[:t.nup] {
				t.ups[u] = vacationUpdate{
					table: rng.Intn(3),
					id:    uint64(rng.Int63n(int64(v.queryRange))),
					price: uint64(100 + rng.Intn(400)),
					grow:  rng.Intn(8) == 0,
				}
			}
			s.Atomic(c, update)
		}
	}
}

// makeReservation reserves the cheapest available queried item of each
// table for the task's customer: the body of one atomic block, as in STAMP.
func (v *vacation) makeReservation(tx tm.Tx, task *vacationTask) {
	crec, ok := v.custTree.Get(tx, task.cust)
	if !ok {
		return
	}
	for t, tbl := range v.tables() {
		bestID, bestRec, bestPrice := uint64(0), mem.Word(0), ^uint64(0)
		for _, id := range task.queries[t][:task.nq] {
			rec, ok := tbl.Get(tx, id)
			if !ok {
				continue
			}
			r := mem.Addr(rec)
			if tx.Load(r+itAvail*8) == 0 {
				continue
			}
			price := uint64(tx.Load(r + itPrice*8))
			if price < bestPrice {
				bestID, bestRec, bestPrice = id, rec, price
			}
		}
		if bestRec == 0 {
			continue
		}
		r := mem.Addr(bestRec)
		tx.Store(r+itAvail*8, tx.Load(r+itAvail*8)-1)
		// Prepend a reservation node to the customer's list.
		node := tx.Alloc(24)
		tx.Store(node+8, mem.Word(t))
		tx.Store(node+16, mem.Word(bestID))
		tx.Store(node, tx.Load(mem.Addr(crec)))
		tx.Store(mem.Addr(crec), mem.Word(node))
	}
}

// deleteCustomer releases all of the task's customer's reservations.
func (v *vacation) deleteCustomer(tx tm.Tx, task *vacationTask) {
	crec, ok := v.custTree.Get(tx, task.cust)
	if !ok {
		return
	}
	head := mem.Addr(crec)
	cur := mem.Addr(tx.Load(head))
	for cur != 0 {
		t := int(tx.Load(cur + 8))
		id := uint64(tx.Load(cur + 16))
		if rec, ok := v.tables()[t].Get(tx, id); ok {
			r := mem.Addr(rec)
			tx.Store(r+itAvail*8, tx.Load(r+itAvail*8)+1)
		}
		next := mem.Addr(tx.Load(cur))
		tx.Free(cur)
		cur = next
	}
	tx.Store(head, 0)
}

// updateTables applies the task's price and capacity updates.
func (v *vacation) updateTables(tx tm.Tx, task *vacationTask) {
	for _, u := range task.ups[:task.nup] {
		rec, ok := v.tables()[u.table].Get(tx, u.id)
		if !ok {
			continue
		}
		r := mem.Addr(rec)
		tx.Store(r+itPrice*8, mem.Word(u.price))
		if u.grow {
			tx.Store(r+itTotal*8, tx.Load(r+itTotal*8)+1)
			tx.Store(r+itAvail*8, tx.Load(r+itAvail*8)+1)
		}
	}
}

// Validate checks conservation: for every item, avail plus outstanding
// reservations equals total.
func (v *vacation) Validate(tx tm.Tx) error {
	type key struct{ t, id int }
	reserved := map[key]uint64{}
	for id := 0; id < v.customers; id++ {
		crec, ok := v.custTree.Get(tx, uint64(id))
		if !ok {
			return fmt.Errorf("customer %d missing", id)
		}
		cur := mem.Addr(tx.Load(mem.Addr(crec)))
		for cur != 0 {
			t := int(tx.Load(cur + 8))
			iid := int(tx.Load(cur + 16))
			reserved[key{t, iid}]++
			cur = mem.Addr(tx.Load(cur))
		}
	}
	for t, tbl := range v.tables() {
		for id := 0; id < v.relations; id++ {
			rec, ok := tbl.Get(tx, uint64(id))
			if !ok {
				return fmt.Errorf("table %d item %d missing", t, id)
			}
			r := mem.Addr(rec)
			total := uint64(tx.Load(r + itTotal*8))
			avail := uint64(tx.Load(r + itAvail*8))
			if avail > total {
				return fmt.Errorf("table %d item %d: avail %d > total %d", t, id, avail, total)
			}
			if avail+reserved[key{t, id}] != total {
				return fmt.Errorf("table %d item %d: avail %d + reserved %d != total %d",
					t, id, avail, reserved[key{t, id}], total)
			}
		}
	}
	return nil
}
