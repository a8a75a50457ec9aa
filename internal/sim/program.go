package sim

import (
	"errors"
	"fmt"
	"math"
	"slices"
)

// OpKind enumerates the operations of the simulator's kernel IR. Workloads
// compile their per-thread work into streams of these operations.
type OpKind uint8

const (
	// OpCompute retires Arg ALU operations (Arg/IssueWidth cycles).
	OpCompute OpKind = iota
	// OpLoad reads the cache line containing the byte address Arg.
	OpLoad
	// OpStore writes the cache line containing the byte address Arg (RFO
	// on miss/shared).
	OpStore
	// OpBarrier synchronizes all cores; every core's stream must contain
	// the same number of barriers in the same order.
	OpBarrier
	// OpPhase switches the accounting phase to Program.Phases[Arg]. Only
	// core 0 may emit phase markers, and each should directly follow a
	// barrier (or stream start) so that all cores agree on the boundary
	// time.
	OpPhase
)

// String returns the op-kind mnemonic.
func (k OpKind) String() string {
	switch k {
	case OpCompute:
		return "compute"
	case OpLoad:
		return "load"
	case OpStore:
		return "store"
	case OpBarrier:
		return "barrier"
	case OpPhase:
		return "phase"
	default:
		return fmt.Sprintf("sim.OpKind(%d)", int(k))
	}
}

// Op is one IR operation packed into a single pointer-free word: the
// OpKind in the top opKindBits bits and a MaxOpArg-bounded argument below
// them. The argument is the ALU op count (OpCompute), the byte address
// (OpLoad/OpStore), an index into Program.Phases (OpPhase), or zero
// (OpBarrier). Streams of Ops hold no pointers, so the garbage collector
// neither scans them nor runs write barriers while they are built.
type Op uint64

const (
	opKindBits  = 3
	opKindShift = 64 - opKindBits

	// MaxOpArg is the largest argument an Op can carry: compute counts and
	// byte addresses above it are rejected by Builder.Build, never
	// truncated.
	MaxOpArg = 1<<opKindShift - 1
)

// makeOp packs kind and arg; arg must not exceed MaxOpArg.
func makeOp(kind OpKind, arg uint64) Op {
	return Op(uint64(kind)<<opKindShift | arg)
}

// Kind returns the operation kind.
func (op Op) Kind() OpKind { return OpKind(op >> opKindShift) }

// Arg returns the operation argument: the compute count, the byte
// address, or the Program.Phases index, by Kind.
func (op Op) Arg() uint64 { return uint64(op) & MaxOpArg }

// Program is a per-core set of operation streams plus the phase-name
// table their OpPhase ops index into.
type Program struct {
	Streams [][]Op
	Phases  []string
}

// NewProgram allocates empty streams for n cores.
func NewProgram(n int) *Program {
	return &Program{Streams: make([][]Op, n)}
}

// Cores returns the number of streams.
func (p *Program) Cores() int { return len(p.Streams) }

// Ops returns the total operation count across all streams.
func (p *Program) Ops() int {
	n := 0
	for _, s := range p.Streams {
		n += len(s)
	}
	return n
}

// Validate checks the structural invariants the machine relies on:
// matching barrier counts across cores, and phase markers only on core 0,
// each naming a non-empty entry of the phase table.
func (p *Program) Validate() error {
	if len(p.Streams) == 0 {
		return errors.New("sim: program has no streams")
	}
	barriers := -1
	for id, s := range p.Streams {
		b := 0
		for _, op := range s {
			switch op.Kind() {
			case OpBarrier:
				b++
			case OpPhase:
				if id != 0 {
					return fmt.Errorf("sim: phase marker on core %d (only core 0 may mark phases)", id)
				}
				i := op.Arg()
				if i >= uint64(len(p.Phases)) {
					return fmt.Errorf("sim: phase index %d outside the %d-entry phase table", i, len(p.Phases))
				}
				if p.Phases[i] == "" {
					return errors.New("sim: empty phase name")
				}
			case OpCompute, OpLoad, OpStore:
				// ok
			default:
				return fmt.Errorf("sim: core %d has unknown op kind %d", id, op.Kind())
			}
		}
		if barriers == -1 {
			barriers = b
		} else if b != barriers {
			return fmt.Errorf("sim: core %d has %d barriers, core 0 has %d", id, b, barriers)
		}
	}
	return nil
}

// Builder constructs per-core streams with a fluent API. An argument too
// large for an Op is recorded, not truncated: Build reports the first one.
type Builder struct {
	prog *Program
	err  error
}

// NewBuilder returns a builder for an n-core program.
func NewBuilder(n int) *Builder { return &Builder{prog: NewProgram(n)} }

// overflow records an argument above MaxOpArg; Build reports the first.
func (b *Builder) overflow(id int, kind OpKind, arg uint64) {
	if b.err == nil {
		b.err = fmt.Errorf("sim: core %d %s argument %#x exceeds %d bits", id, kind, arg, opKindShift)
	}
}

// Compute appends an ALU burst to core id's stream.
func (b *Builder) Compute(id int, n uint64) *Builder {
	switch {
	case n > MaxOpArg:
		b.overflow(id, OpCompute, n)
	case n > 0:
		b.prog.Streams[id] = append(b.prog.Streams[id], makeOp(OpCompute, n))
	}
	return b
}

// Load appends a load of addr to core id's stream.
func (b *Builder) Load(id int, addr uint64) *Builder {
	if addr > MaxOpArg {
		b.overflow(id, OpLoad, addr)
		return b
	}
	b.prog.Streams[id] = append(b.prog.Streams[id], makeOp(OpLoad, addr))
	return b
}

// Store appends a store to addr to core id's stream.
func (b *Builder) Store(id int, addr uint64) *Builder {
	if addr > MaxOpArg {
		b.overflow(id, OpStore, addr)
		return b
	}
	b.prog.Streams[id] = append(b.prog.Streams[id], makeOp(OpStore, addr))
	return b
}

// Reserve makes room for exactly n more ops on core id's stream. A caller
// that knows a stream's final length reserves it once, so the stream is
// allocated once and never copied; later appends that fit add no slack.
func (b *Builder) Reserve(id int, n int) {
	if s := b.prog.Streams[id]; cap(s)-len(s) < n {
		b.setCap(id, len(s)+n)
	}
}

// grow reserves room for n more ops on core id's stream with geometric
// slack, so a burst of appends whose size the caller knows — a
// line-granular range — costs at most one growth instead of one per
// doubling.
func (b *Builder) grow(id int, n int) {
	if s := b.prog.Streams[id]; cap(s)-len(s) < n {
		b.setCap(id, max(len(s)+n+len(s)/2, 2*cap(s), 256))
	}
}

// setCap moves core id's stream to a new backing array of capacity c.
func (b *Builder) setCap(id, c int) {
	s := b.prog.Streams[id]
	ns := make([]Op, len(s), c)
	copy(ns, s)
	b.prog.Streams[id] = ns
}

// RangeOps returns how many ops LoadRange or StoreRange appends for
// [addr, addr+bytes): one per lineSz-byte line the range touches.
func RangeOps(addr, bytes uint64, lineSz int) int {
	if bytes == 0 {
		return 0
	}
	line := uint64(lineSz)
	first := addr &^ (line - 1)
	last := (addr + bytes - 1) &^ (line - 1)
	return int((last-first)/line) + 1
}

// appendRange appends one kind op per line covering [addr, addr+bytes).
// The range is bounds-checked once, at its last byte.
func (b *Builder) appendRange(id int, kind OpKind, addr, bytes uint64, lineSz int) {
	if bytes == 0 {
		return
	}
	end := addr + bytes - 1
	if end < addr {
		end = math.MaxUint64 // wrapped: report the overflow below
	}
	if end > MaxOpArg {
		b.overflow(id, kind, end)
		return
	}
	b.grow(id, RangeOps(addr, bytes, lineSz))
	s := b.prog.Streams[id]
	line := uint64(lineSz)
	for a := addr &^ (line - 1); a <= end; a += line {
		s = append(s, makeOp(kind, a))
	}
	b.prog.Streams[id] = s
}

// LoadRange appends line-granular loads covering [addr, addr+bytes).
func (b *Builder) LoadRange(id int, addr, bytes uint64, lineSz int) *Builder {
	b.appendRange(id, OpLoad, addr, bytes, lineSz)
	return b
}

// StoreRange appends line-granular stores covering [addr, addr+bytes).
func (b *Builder) StoreRange(id int, addr, bytes uint64, lineSz int) *Builder {
	b.appendRange(id, OpStore, addr, bytes, lineSz)
	return b
}

// Barrier appends a barrier to every core's stream.
func (b *Builder) Barrier() *Builder {
	for id := range b.prog.Streams {
		b.prog.Streams[id] = append(b.prog.Streams[id], makeOp(OpBarrier, 0))
	}
	return b
}

// Phase appends a phase marker to core 0's stream, interning name in the
// program's phase table. Phase vocabularies are a handful of names, so a
// linear scan of the table is the whole lookup.
func (b *Builder) Phase(name string) *Builder {
	i := slices.Index(b.prog.Phases, name)
	if i < 0 {
		i = len(b.prog.Phases)
		b.prog.Phases = append(b.prog.Phases, name)
	}
	b.prog.Streams[0] = append(b.prog.Streams[0], makeOp(OpPhase, uint64(i)))
	return b
}

// Build returns the program, or the first argument overflow recorded
// while it was built. It makes no Validate pass: Barrier writes every
// stream, Phase marks only core 0 and interns its index, so the only
// faults a Builder can produce are zero streams and an empty phase name,
// and Machine.Run, which validates every program it runs, reports both.
func (b *Builder) Build() (*Program, error) {
	if b.err != nil {
		return nil, b.err
	}
	return b.prog, nil
}
