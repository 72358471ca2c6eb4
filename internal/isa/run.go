package isa

import (
	"errors"
	"fmt"

	"herdcats/internal/events"
)

// ErrInfeasible is returned by Run when the value oracle rejects a read,
// meaning this execution branch of the enumeration cannot happen.
var ErrInfeasible = errors.New("isa: infeasible execution")

// Builder accumulates the events of one thread's run, together with the
// edge lists that package exec turns into relations once the total number
// of events is known. A builder may be reused: Reset empties it but keeps
// its buffers, and Run keeps its register maps on the builder, so a warm
// builder runs a thread without growing anything.
type Builder struct {
	Events   []events.Event
	IICO     [][2]int
	IICOAddr [][2]int // iico edges entering a memory access via its address port
	IICOData [][2]int // iico edges entering a memory write via its value port
	RFReg    [][2]int // register read-from

	regs, lastRegWrite, labelAt map[string]int // Run's scratch, see Run
}

// Reset empties b for the next Run, keeping its buffers. Slices read from b
// before a Reset are overwritten by the next Run: copy what must outlive it.
func (b *Builder) Reset() {
	b.Events = b.Events[:0]
	b.IICO = b.IICO[:0]
	b.IICOAddr = b.IICOAddr[:0]
	b.IICOData = b.IICOData[:0]
	b.RFReg = b.RFReg[:0]
}

// Emit appends an event and returns its ID.
func (b *Builder) Emit(e events.Event) int {
	e.ID = len(b.Events)
	b.Events = append(b.Events, e)
	return e.ID
}

// Env supplies the execution-dependent oracles to Run.
type Env struct {
	// LocOf maps an address value to a location name. Address values are
	// how locations are passed in registers (e.g. init "0:r1=x").
	LocOf func(addr int) (string, bool)
	// ReadVal returns the value the enumerator assigns to the next memory
	// read of loc in this thread; ok=false prunes the execution.
	ReadVal func(loc string) (val int, ok bool)
}

// Run executes the instructions of one thread concretely, emitting its
// events into b (Sec. 5 semantics). regInit gives initial register values
// (addresses already encoded as ints). It returns the final register file.
//
// Reads take their values from env.ReadVal: the enumeration over candidate
// data-flows (Sec. 3) is a loop over the oracle's assignments.
//
// The returned register file is b's own map: the next Run on b overwrites
// it, so a caller that reuses b copies what it keeps.
func Run(b *Builder, tid int, instrs []Instr, regInit map[string]int, env Env) (map[string]int, error) {
	if b.regs == nil {
		b.regs = make(map[string]int, len(regInit)+4)
		b.lastRegWrite = map[string]int{}
		b.labelAt = map[string]int{}
	}
	regs := b.regs
	clear(regs)
	for k, v := range regInit {
		regs[k] = v
	}
	lastRegWrite := b.lastRegWrite // register -> event ID of latest write
	clear(lastRegWrite)

	// readReg emits a register read event and links its rf-reg edge.
	readReg := func(pc int, r string) int {
		id := b.Emit(events.Event{Tid: tid, PC: pc, Kind: events.RegRead, Loc: r, Val: regs[r]})
		if w, ok := lastRegWrite[r]; ok {
			b.RFReg = append(b.RFReg, [2]int{w, id})
		}
		return id
	}
	writeReg := func(pc int, r string, v int) int {
		regs[r] = v
		id := b.Emit(events.Event{Tid: tid, PC: pc, Kind: events.RegWrite, Loc: r, Val: v})
		lastRegWrite[r] = id
		return id
	}
	labelAt := b.labelAt
	clear(labelAt)
	for i, in := range instrs {
		if in.Op == OpLabel {
			labelAt[in.Label] = i
		}
	}

	for pc := 0; pc < len(instrs); {
		in := instrs[pc]
		switch in.Op {
		case OpNop, OpLabel:
			// no events

		case OpLi:
			writeReg(pc, in.Rd, in.Imm)

		case OpMove:
			src := readReg(pc, in.Ra)
			dst := writeReg(pc, in.Rd, regs[in.Ra])
			b.iico(src, dst)

		case OpLoad, OpLoadX, OpLoadA:
			var addrPorts []int
			var addr int
			switch in.Op {
			case OpLoad:
				addrPorts = []int{readReg(pc, in.Ra)}
				addr = regs[in.Ra]
			case OpLoadX:
				ra := readReg(pc, in.Ra)
				rb := readReg(pc, in.Rb)
				addrPorts = []int{ra, rb}
				addr = regs[in.Ra] + regs[in.Rb]
			case OpLoadA:
				// Absolute addressing: no address-port register read.
			}
			loc := in.Loc
			if in.Op != OpLoadA {
				var ok bool
				loc, ok = env.LocOf(addr)
				if !ok {
					return nil, fmt.Errorf("isa: thread %d pc %d (%s): address %d does not name a location", tid, pc, in, addr)
				}
			}
			val, ok := env.ReadVal(loc)
			if !ok {
				return nil, ErrInfeasible
			}
			mem := b.Emit(events.Event{Tid: tid, PC: pc, Kind: events.MemRead, Loc: loc, Val: val, Order: in.Order})
			for _, p := range addrPorts {
				b.iicoAddr(p, mem)
			}
			dst := writeReg(pc, in.Rd, val)
			b.iico(mem, dst)

		case OpStore, OpStoreX, OpStoreA, OpStoreAI:
			var addrPorts, dataPorts []int
			var addr, val int
			loc := in.Loc
			switch in.Op {
			case OpStore:
				dataPorts = []int{readReg(pc, in.Rd)}
				val = regs[in.Rd]
				addrPorts = []int{readReg(pc, in.Ra)}
				addr = regs[in.Ra]
			case OpStoreX:
				dataPorts = []int{readReg(pc, in.Rd)}
				val = regs[in.Rd]
				ra := readReg(pc, in.Ra)
				rb := readReg(pc, in.Rb)
				addrPorts = []int{ra, rb}
				addr = regs[in.Ra] + regs[in.Rb]
			case OpStoreA:
				dataPorts = []int{readReg(pc, in.Rd)}
				val = regs[in.Rd]
			case OpStoreAI:
				val = in.Imm
			}
			if in.Op == OpStore || in.Op == OpStoreX {
				var ok bool
				loc, ok = env.LocOf(addr)
				if !ok {
					return nil, fmt.Errorf("isa: thread %d pc %d (%s): address %d does not name a location", tid, pc, in, addr)
				}
			}
			mem := b.Emit(events.Event{Tid: tid, PC: pc, Kind: events.MemWrite, Loc: loc, Val: val, Order: in.Order})
			for _, p := range addrPorts {
				b.iicoAddr(p, mem)
			}
			for _, p := range dataPorts {
				b.iicoData(p, mem)
			}

		case OpXor, OpAdd, OpAnd:
			ra := readReg(pc, in.Ra)
			rb := readReg(pc, in.Rb)
			var v int
			switch in.Op {
			case OpXor:
				v = regs[in.Ra] ^ regs[in.Rb]
			case OpAdd:
				v = regs[in.Ra] + regs[in.Rb]
			case OpAnd:
				v = regs[in.Ra] & regs[in.Rb]
			}
			dst := writeReg(pc, in.Rd, v)
			b.iico(ra, dst)
			b.iico(rb, dst)

		case OpAddi:
			ra := readReg(pc, in.Ra)
			dst := writeReg(pc, in.Rd, regs[in.Ra]+in.Imm)
			b.iico(ra, dst)

		case OpCmpI, OpCmp:
			ra := readReg(pc, in.Ra)
			a := regs[in.Ra]
			var bval int
			srcs := []int{ra}
			if in.Op == OpCmp {
				rb := readReg(pc, in.Rb)
				srcs = append(srcs, rb)
				bval = regs[in.Rb]
			} else {
				bval = in.Imm
			}
			cc := ccLT
			switch {
			case a == bval:
				cc = ccEQ
			case a > bval:
				cc = ccGT
			}
			dst := writeReg(pc, CCReg, cc)
			for _, s := range srcs {
				b.iico(s, dst)
			}

		case OpBeq, OpBne:
			src := readReg(pc, CCReg)
			br := b.Emit(events.Event{Tid: tid, PC: pc, Kind: events.Branch})
			b.iico(src, br)
			taken := (regs[CCReg] == ccEQ) == (in.Op == OpBeq)
			if taken {
				pc = labelAt[in.Label]
				continue
			}

		case OpFence:
			b.Emit(events.Event{Tid: tid, PC: pc, Kind: events.Fence, Fence: in.Fence})

		default:
			return nil, fmt.Errorf("isa: thread %d pc %d: unhandled op in %q", tid, pc, in.Text)
		}
		pc++
	}
	return regs, nil
}

func (b *Builder) iico(from, to int) {
	b.IICO = append(b.IICO, [2]int{from, to})
}

func (b *Builder) iicoAddr(from, to int) {
	b.IICO = append(b.IICO, [2]int{from, to})
	b.IICOAddr = append(b.IICOAddr, [2]int{from, to})
}

func (b *Builder) iicoData(from, to int) {
	b.IICO = append(b.IICO, [2]int{from, to})
	b.IICOData = append(b.IICOData, [2]int{from, to})
}
