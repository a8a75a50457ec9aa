package engine

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

// keyReflect spells out the key format byte by byte, independently of
// Key: FNV-1a 64 over the %#v rendering of each part plus a NUL, printed
// as 16 lowercase hex digits. Key must match it on every part type, or
// warm disk caches would silently stop replaying.
func keyReflect(parts ...any) string {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	for _, p := range parts {
		for _, c := range []byte(fmt.Sprintf("%#v", p) + "\x00") {
			h ^= uint64(c)
			h *= prime64
		}
	}
	return fmt.Sprintf("%016x", h)
}

// keyTestStruct is a struct part, rendered in full Go syntax.
type keyTestStruct struct {
	A int
	B string
	U uint64
}

func TestKeyMatchesReflectReference(t *testing.T) {
	cases := [][]any{
		{},
		{"experiment", "fig4", true, false},
		{"sim-run", "kmeans", 16},
		{"", ""},
		{0, -1, 1, -9223372036854775808, 9223372036854775807},
		{int64(-5), int32(7), uint(12), uint32(255), uint8(0), uint64(0), uint64(1), uint64(0xdeadbeef), uint64(math.MaxUint64)},
		{0.0, -0.0, 1.0, 0.1, 0.999, 1e21, 1e-7, -2.5, 3.0, math.Pi},
		{math.Inf(1), math.Inf(-1), math.NaN()},
		{"quotes \" and \\ and \n and \t", "unicode: héllo ⊕", "nul \x00 byte", "`backquoted`"},
		{keyTestStruct{A: 1, B: "x", U: 42}},
		{true, 1, "mixed", 2.5, uint64(9), keyTestStruct{}},
	}
	for _, parts := range cases {
		if got, want := Key(parts...), keyReflect(parts...); got != want {
			t.Errorf("Key(%#v) = %q, reference %q", parts, got, want)
		}
	}
}

// TestKeyScalarGoldens pins Key outputs. These literals must NEVER change:
// they are the disk-cache key format (see docs/ARCHITECTURE.md).
func TestKeyScalarGoldens(t *testing.T) {
	goldens := []struct {
		parts []any
		want  string
	}{
		{[]any{}, "cbf29ce484222325"},
		{[]any{"square", 7}, "12df7a433ad704eb"},
		{[]any{"", -42, uint64(0), uint64(255), true, false, 0.1, 1e21, -0.0, "a\"b\\c\nd", 3.0}, "e025b45921d34bd7"},
	}
	for _, g := range goldens {
		if got := Key(g.parts...); got != g.want {
			t.Errorf("Key(%#v) = %q, golden %q", g.parts, got, g.want)
		}
	}
}

// TestKeyQuickScalars property-checks Key against the reference across
// randomized scalar inputs.
func TestKeyQuickScalars(t *testing.T) {
	cfg := &quick.Config{MaxCount: 300}
	check := func(name string, f any) {
		t.Helper()
		if err := quick.Check(f, cfg); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	check("string", func(s string) bool { return Key(s) == keyReflect(s) })
	check("int", func(v int) bool { return Key(v) == keyReflect(v) })
	check("int64", func(v int64) bool { return Key(v) == keyReflect(v) })
	check("uint64", func(v uint64) bool { return Key(v) == keyReflect(v) })
	check("float64", func(v float64) bool { return Key(v) == keyReflect(v) })
	check("bool", func(v bool) bool { return Key(v) == keyReflect(v) })
	check("mixed", func(a string, b uint64, c float64, d int, e bool) bool {
		return Key(a, b, c, d, e) == keyReflect(a, b, c, d, e)
	})
}

func BenchmarkKeyScalars(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Key("sweep-sym", "kmeans", 0.99985, uint64(120), i&7)
	}
}
