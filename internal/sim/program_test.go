package sim

import (
	"math"
	"testing"
	"unsafe"
)

// TestLayoutSizes pins the packed layouts: one word per op, two words per
// cache line.
func TestLayoutSizes(t *testing.T) {
	if got := unsafe.Sizeof(Op(0)); got != 8 {
		t.Errorf("sizeof(Op) = %d, want 8", got)
	}
	if got := unsafe.Sizeof(cacheLine{}); got != 16 {
		t.Errorf("sizeof(cacheLine) = %d, want 16", got)
	}
}

func TestOpRoundTrip(t *testing.T) {
	for _, k := range []OpKind{OpCompute, OpLoad, OpStore, OpBarrier, OpPhase} {
		for _, arg := range []uint64{0, 1, 64, 1 << 40, MaxOpArg} {
			op := makeOp(k, arg)
			if op.Kind() != k || op.Arg() != arg {
				t.Errorf("makeOp(%v, %#x) decodes to (%v, %#x)", k, arg, op.Kind(), op.Arg())
			}
		}
	}
}

// TestBuildRejectsOversizedOpArg: an argument above MaxOpArg is an error
// from Build, never a silently truncated op; MaxOpArg itself fits.
func TestBuildRejectsOversizedOpArg(t *testing.T) {
	bad := map[string]func(b *Builder){
		"load":             func(b *Builder) { b.Load(0, MaxOpArg+1) },
		"store":            func(b *Builder) { b.Store(0, 1<<63) },
		"compute":          func(b *Builder) { b.Compute(0, math.MaxUint64) },
		"load range end":   func(b *Builder) { b.LoadRange(0, MaxOpArg-10, 100, 64) },
		"store range wrap": func(b *Builder) { b.StoreRange(0, math.MaxUint64-5, 10, 64) },
	}
	for name, emit := range bad {
		b := NewBuilder(1)
		emit(b)
		b.Load(0, 64) // a later valid op must not clear the error
		if _, err := b.Build(); err == nil {
			t.Errorf("%s: Build accepted an argument above MaxOpArg", name)
		}
	}

	b := NewBuilder(1)
	b.Load(0, MaxOpArg).Store(0, MaxOpArg).Compute(0, MaxOpArg)
	b.LoadRange(0, MaxOpArg-63, 64, 64)
	prog, err := b.Build()
	if err != nil {
		t.Fatalf("MaxOpArg arguments rejected: %v", err)
	}
	want := []Op{makeOp(OpLoad, MaxOpArg), makeOp(OpStore, MaxOpArg), makeOp(OpCompute, MaxOpArg), makeOp(OpLoad, MaxOpArg-63)}
	if got := prog.Streams[0]; len(got) != len(want) {
		t.Fatalf("stream = %v, want %v", got, want)
	}
	for i, op := range prog.Streams[0] {
		if op != want[i] {
			t.Errorf("op %d = (%v, %#x), want (%v, %#x)", i, op.Kind(), op.Arg(), want[i].Kind(), want[i].Arg())
		}
	}
}

// TestValidateRejectsBadPhaseIndex: a phase op must index a non-empty
// entry of the program's phase table.
func TestValidateRejectsBadPhaseIndex(t *testing.T) {
	cases := []struct {
		name   string
		phases []string
		arg    uint64
		ok     bool
	}{
		{"in range", []string{"init", "parallel"}, 1, true},
		{"past end", []string{"init"}, 1, false},
		{"no table", nil, 0, false},
		{"huge index", []string{"init"}, MaxOpArg, false},
		{"empty name", []string{""}, 0, false},
	}
	for _, c := range cases {
		p := NewProgram(1)
		p.Phases = c.phases
		p.Streams[0] = []Op{makeOp(OpPhase, c.arg)}
		if err := p.Validate(); (err == nil) != c.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

// TestRunRejectsBuilderFaults: the two faults a Builder can produce, zero
// streams and an empty phase name, pass Build (which makes no Validate
// pass) and are reported by Run.
func TestRunRejectsBuilderFaults(t *testing.T) {
	for name, b := range map[string]*Builder{
		"no streams":       NewBuilder(0),
		"empty phase name": NewBuilder(1).Phase("").Compute(0, 1),
	} {
		prog, err := b.Build()
		if err != nil {
			t.Fatalf("%s: Build: %v", name, err)
		}
		m, err := NewMachine(DefaultConfig(1))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Run(prog); err == nil {
			t.Errorf("%s: Run accepted the program", name)
		}
	}
}

// TestBuilderInternsPhases: repeated phase names share one table entry,
// and Run reports each instance under its name.
func TestBuilderInternsPhases(t *testing.T) {
	b := NewBuilder(1)
	for i := 0; i < 3; i++ {
		b.Phase("parallel").Compute(0, 4).Phase("serial").Compute(0, 4)
	}
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Phases) != 2 || prog.Phases[0] != "parallel" || prog.Phases[1] != "serial" {
		t.Fatalf("phase table = %q, want [parallel serial]", prog.Phases)
	}
	res, err := mustMachine(t, 1).Run(prog)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Phases) != 6 || res.Phases[4].Name != "parallel" || res.Phases[5].Name != "serial" {
		t.Errorf("dynamic phases = %v", res.Phases)
	}
}

// TestRangeOpsCountsAppendedOps checks that RangeOps predicts exactly how
// many ops LoadRange appends, for aligned, unaligned and line-straddling
// ranges, and that Reserve then holds a stream at cap == len.
func TestRangeOpsCountsAppendedOps(t *testing.T) {
	for _, lineSz := range []int{32, 64, 128} {
		for _, addr := range []uint64{0, 1, 63, 64, 100, 4095, MaxOpArg - 300} {
			for _, bytes := range []uint64{0, 1, 2, 63, 64, 65, 200} {
				n := RangeOps(addr, bytes, lineSz)
				b := NewBuilder(1)
				b.Reserve(0, n)
				b.LoadRange(0, addr, bytes, lineSz)
				s := b.prog.Streams[0]
				if len(s) != n || cap(s) != n {
					t.Errorf("line %d addr %#x bytes %d: RangeOps %d, appended len %d cap %d", lineSz, addr, bytes, n, len(s), cap(s))
				}
			}
		}
	}
}
