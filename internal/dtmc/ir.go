// Package dtmc is a miniature of the Dresden TM Compiler (§3.1): a tiny SSA-
// free register IR with atomic blocks, an instrumentation pass that lowers
// them onto the TM ABI of package tm, and an interpreter that executes the
// result on the simulated machine.
//
// The pass pipeline reproduces DTMC's (Fig. 2):
//
//  1. front end emits IR in which transaction statements are visible
//     (AtomicBegin/AtomicEnd);
//  2. the TM pass rewrites memory accesses inside transactions into ABI
//     barrier calls, redirects calls inside transactions to transactional
//     clones of the callees, and switches to serial-irrevocable mode before
//     calls with no transaction-safe version (§3.3, approach 3);
//  3. accesses to function-local slots (the "stack") stay uninstrumented —
//     DTMC's selective-annotation optimisation;
//  4. the interpreter plays the role of the binary: begin is a register
//     checkpoint plus runtime dispatch, and aborts restart the block body
//     exactly like returning from _ITM_beginTransaction a second time.
package dtmc

import "fmt"

// Op is an IR opcode.
type Op uint8

const (
	// OpConst: reg[A] = Imm.
	OpConst Op = iota
	// OpMov: reg[A] = reg[B].
	OpMov
	// OpAdd: reg[A] = reg[B] + reg[C].
	OpAdd
	// OpSub: reg[A] = reg[B] - reg[C].
	OpSub
	// OpLoad: reg[A] = shared[reg[B]] (a potentially shared access —
	// instrumented inside transactions).
	OpLoad
	// OpStore: shared[reg[B]] = reg[A].
	OpStore
	// OpLocalLoad: reg[A] = stack slot Imm (never instrumented).
	OpLocalLoad
	// OpLocalStore: stack slot Imm = reg[A].
	OpLocalStore
	// OpAtomicBegin / OpAtomicEnd bracket a transaction statement.
	OpAtomicBegin
	OpAtomicEnd
	// OpCall: call function Name, passing reg[B] in the callee's reg 0
	// and receiving the callee's reg 0 into reg[A].
	OpCall
	// OpExtern: call an external function with no transactional clone
	// (charged Imm instructions). Inside a transaction this forces
	// serial-irrevocable mode.
	OpExtern
	// OpJmp: jump to Imm.
	OpJmp
	// OpJnz: jump to Imm if reg[A] != 0.
	OpJnz
	// OpRet: return (value in reg 0).
	OpRet

	// Inserted by the TM pass only:

	// OpTMLoad / OpTMStore are OpLoad/OpStore lowered to ABI barriers.
	OpTMLoad
	OpTMStore
	// OpSerialize forces the enclosing transaction irrevocable before an
	// unsafe call.
	OpSerialize
)

func (o Op) String() string {
	names := [...]string{"const", "mov", "add", "sub", "load", "store",
		"lload", "lstore", "atomic{", "}atomic", "call", "extern",
		"jmp", "jnz", "ret", "tmload", "tmstore", "serialize"}
	if int(o) < len(names) {
		return names[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Instr is one IR instruction.
type Instr struct {
	Op      Op
	A, B, C int    // register operands
	Imm     uint64 // immediate / slot / jump target / cost
	Name    string // callee for OpCall
}

// Function is one IR function.
type Function struct {
	Name   string
	NRegs  int
	NSlots int // stack slots (thread-local; uninstrumented)
	Code   []Instr
}

// Program is a set of functions; "main" names each thread's entry point by
// convention of the caller.
type Program struct {
	Funcs map[string]*Function
}

// NewProgram returns an empty program.
func NewProgram() *Program { return &Program{Funcs: map[string]*Function{}} }

// Add registers fn, panicking on duplicates (a front-end bug).
func (p *Program) Add(fn *Function) {
	if _, dup := p.Funcs[fn.Name]; dup {
		panic("dtmc: duplicate function " + fn.Name)
	}
	p.Funcs[fn.Name] = fn
}

// Builder assembles a function, tracking register and slot high-water
// marks so callers need not count them.
type Builder struct {
	fn *Function
}

// NewFunc starts building a function.
func NewFunc(name string) *Builder {
	return &Builder{fn: &Function{Name: name}}
}

// Emit appends an instruction and returns its index (for jump targets).
func (b *Builder) Emit(i Instr) int {
	for _, r := range []int{i.A, i.B, i.C} {
		if r+1 > b.fn.NRegs {
			b.fn.NRegs = r + 1
		}
	}
	if i.Op == OpLocalLoad || i.Op == OpLocalStore {
		if int(i.Imm)+1 > b.fn.NSlots {
			b.fn.NSlots = int(i.Imm) + 1
		}
	}
	b.fn.Code = append(b.fn.Code, i)
	return len(b.fn.Code) - 1
}

// Here returns the next instruction index.
func (b *Builder) Here() int { return len(b.fn.Code) }

// Done finalises the function.
func (b *Builder) Done() *Function { return b.fn }
