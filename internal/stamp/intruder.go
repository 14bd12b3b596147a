package stamp

import (
	"fmt"

	"asfstack"
	"asfstack/internal/mem"
	"asfstack/internal/sim"
	"asfstack/internal/tm"
	"asfstack/internal/txlib"
)

// intruder is signature-based network intrusion detection: threads pull
// fragmented packets off a shared queue (capture), reassemble flows in a
// shared dictionary (reassembly — both transactional), and scan completed
// flows locally (detection). The two shared queues and the reassembly map
// make this the most contended application in the suite, matching its
// 30-40% abort rates in Fig. 6.
type intruder struct {
	flows    int
	maxFrags int

	packetQ  *txlib.Queue
	flowMap  *txlib.HashMap // flowID -> assembly record address
	decodedQ *txlib.Queue
	handled  wordArray // per flow: 1 once detection ran
	attacks  mem.Addr  // shared attack counter (one line)

	fragTotal  []int // Go-side: fragments per flow (validation)
	attackFlow []bool
}

// assembly record layout: word 0 = fragments seen, word 1 = total.
const asmSeen, asmTotal = 0, 1

func newIntruder(scale float64) *intruder {
	return &intruder{flows: int(384 * scale), maxFrags: 4}
}

func (in *intruder) Name() string { return "intruder" }

func (in *intruder) Setup(s *asfstack.Stack, tx tm.Tx, threads int) {
	rng := tx.CPU().Rand()
	in.packetQ = txlib.NewQueue(tx)
	in.flowMap = txlib.NewHashMap(tx, 10)
	in.decodedQ = txlib.NewQueue(tx)
	in.handled = allocArray(tx, in.flows)
	in.attacks = tx.AllocLines(1)

	// Build the fragment trace: every flow split into 1..maxFrags
	// fragments, all shuffled together (a packet is flowID<<8 | nfrags).
	in.fragTotal = make([]int, in.flows)
	in.attackFlow = make([]bool, in.flows)
	var trace []mem.Word
	for f := 0; f < in.flows; f++ {
		n := 1 + rng.Intn(in.maxFrags)
		in.fragTotal[f] = n
		in.attackFlow[f] = rng.Intn(10) == 0 // ~10% attack signatures
		for i := 0; i < n; i++ {
			trace = append(trace, mem.Word(uint64(f)<<8|uint64(n)))
		}
	}
	rng.Shuffle(len(trace), func(i, j int) { trace[i], trace[j] = trace[j], trace[i] })
	for _, p := range trace {
		in.packetQ.Push(tx, p)
	}
}

func (in *intruder) Thread(s *asfstack.Stack, c *sim.CPU, tid, threads int) {
	// Atomic bodies, built once over the slots the loop fills (see
	// App.Thread).
	var (
		pkt, flow         mem.Word
		havePkt, haveFlow bool
	)
	capture := func(tx tm.Tx) { pkt, havePkt = in.packetQ.Pop(tx) }
	// Reassembly: find-or-create the flow record, bump it, and hand
	// complete flows to the decoded queue.
	reassemble := func(tx tm.Tx) {
		f, total := uint64(pkt>>8), mem.Word(pkt&0xFF)
		rec, ok := in.flowMap.Get(tx, f)
		if !ok {
			r := tx.Alloc(16)
			tx.Store(r+asmSeen*8, 0)
			tx.Store(r+asmTotal*8, total)
			in.flowMap.Put(tx, f, mem.Word(r))
			rec = mem.Word(r)
		}
		r := mem.Addr(rec)
		seen := tx.Load(r+asmSeen*8) + 1
		tx.Store(r+asmSeen*8, seen)
		if seen == tx.Load(r+asmTotal*8) {
			in.flowMap.Remove(tx, f)
			in.decodedQ.Push(tx, mem.Word(f))
		}
	}
	drain := func(tx tm.Tx) { flow, haveFlow = in.decodedQ.Pop(tx) }
	detect := func(tx tm.Tx) {
		f := int(flow)
		tx.Store(in.handled.addr(f), tx.Load(in.handled.addr(f))+1)
		if in.attackFlow[f] {
			tx.Store(in.attacks, tx.Load(in.attacks)+1)
		}
	}

	for {
		// Capture: one transaction per packet.
		pkt, havePkt = 0, false
		s.Atomic(c, capture)
		if havePkt {
			s.Atomic(c, reassemble)
		}

		// Detection: drain one decoded flow if available.
		flow, haveFlow = 0, false
		s.Atomic(c, drain)
		if haveFlow {
			// Signature scan is thread-local compute over the payload.
			c.Exec(60 * in.fragTotal[flow])
			s.Atomic(c, detect)
		}

		if !havePkt && !haveFlow {
			return // both queues drained
		}
	}
}

func (in *intruder) Validate(tx tm.Tx) error {
	wantAttacks := 0
	for f := 0; f < in.flows; f++ {
		if got := tx.Load(in.handled.addr(f)); got != 1 {
			return fmt.Errorf("flow %d handled %d times", f, got)
		}
		if in.attackFlow[f] {
			wantAttacks++
		}
	}
	if got := int(tx.Load(in.attacks)); got != wantAttacks {
		return fmt.Errorf("attacks = %d, want %d", got, wantAttacks)
	}
	if !in.packetQ.Empty(tx) || !in.decodedQ.Empty(tx) {
		return fmt.Errorf("queues not drained")
	}
	return nil
}
