package experiments

import (
	"context"
	"io"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"mergescale/internal/report"
)

// checkFormatters compares appendF2 (through f2, and appended after a
// prefix) with the strconv call it stands in for.
func checkFormatters(t *testing.T, v float64) {
	t.Helper()
	if want, got := strconv.FormatFloat(v, 'f', 2, 64), f2(v); got != want {
		t.Fatalf("f2(%v) [bits %#x] = %q, want %q", v, math.Float64bits(v), got, want)
	}
	if got := string(appendF2([]byte("x,"), v)); got != "x,"+f2(v) {
		t.Fatalf("appendF2 after a prefix = %q, want %q", got, "x,"+f2(v))
	}
}

// TestFormattersFixedVectors pins the cases where appendF2's fast path
// could differ from strconv: exact binary ties, values just off a
// decimal tie, the 1e4 cut-over, signed zeros and non-finite values.
func TestFormattersFixedVectors(t *testing.T) {
	f2Want := map[float64]string{
		0.125:     "0.12",
		0.375:     "0.38",
		2.675:     "2.67",
		1.005:     "1.00",
		0.005:     "0.01",
		9.995:     "9.99",
		99.995:    "100.00",
		9999.995:  "10000.00",
		1e4:       "10000.00",
		-0.001:    "-0.00",
		-2.5:      "-2.50",
		1234.5678: "1234.57",
	}
	for v, want := range f2Want {
		if got := f2(v); got != want {
			t.Errorf("f2(%v) = %q, want %q", v, got, want)
		}
		checkFormatters(t, v)
	}
	for _, v := range []float64{math.Copysign(0, -1), 0, math.NaN(), math.Inf(1), math.Inf(-1),
		math.MaxFloat64, math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.Nextafter(1e4, 0), math.Nextafter(1e6, 0), math.Nextafter(1, 0)} {
		checkFormatters(t, v)
	}
	if got := f2(math.Copysign(0, -1)); got != "-0.00" {
		t.Errorf("f2(-0) = %q, want \"-0.00\"", got)
	}
}

// TestFormattersMatchStrconvRandom draws seeded values from the families
// where fixed-precision rounding is hardest and compares every one with
// strconv. It is sized to take a few seconds under -race; random bit
// patterns get fewer draws, since nearly all of them are far outside the
// fast paths and cost strconv hundreds of digits each.
func TestFormattersMatchStrconvRandom(t *testing.T) {
	n := 25000
	if testing.Short() {
		n = 2500
	}
	rng := rand.New(rand.NewSource(1))
	families := []struct {
		name  string
		draws int
		gen   func() float64
	}{
		{"uniform [0,100)", n, func() float64 { return rng.Float64() * 100 }},
		{"random bits", n / 8, func() float64 { return math.Float64frombits(rng.Uint64()) }},
		{"next to (k+0.5)/100", n, func() float64 {
			tie := (float64(rng.Intn(2_000_000)) + 0.5) / 100
			return math.Nextafter(tie, math.Inf(2*rng.Intn(2)-1))
		}},
		{"k/1024", n, func() float64 { return float64(rng.Intn(20_000_000)) / 1024 }},
		{"signed 1e-12..1e12", n, func() float64 {
			v := math.Pow(10, rng.Float64()*24-12)
			if rng.Intn(2) == 0 {
				v = -v
			}
			return v
		}},
		{"whole numbers", n, func() float64 { return float64(rng.Intn(3_000_000) - 1_000_000) }},
	}
	for _, fam := range families {
		t.Run(strings.ReplaceAll(fam.name, " ", "_"), func(t *testing.T) {
			for i := 0; i < fam.draws; i++ {
				checkFormatters(t, fam.gen())
			}
		})
	}
}

// allocPlan is a 1024-point sweep: 4 apps × 256 r values on one budget.
func allocPlan(tb testing.TB) *SweepPlan {
	rs := make([]string, 256)
	for i := range rs {
		rs[i] = strconv.Itoa(i + 1)
	}
	req, err := ParseSweepRequest(strings.NewReader(`{"apps":[{"f":0.5},{"f":0.9},{"f":0.99,"fcon":0.6,"fored":0.8},{"f":0.975,"fcon":0.1,"fored":0.2}],` +
		`"budgets":[4096],"rs":[` + strings.Join(rs, ",") + `]}`))
	if err != nil {
		tb.Fatal(err)
	}
	plan, err := req.Normalize()
	if err != nil {
		tb.Fatal(err)
	}
	if plan.Points() != 1024 {
		tb.Fatalf("plan has %d points, want 1024", plan.Points())
	}
	return plan
}

// runCSV renders plan as csv into io.Discard.
func runCSV(tb testing.TB, plan *SweepPlan) {
	r, err := report.NewRenderer("csv", io.Discard)
	if err != nil {
		tb.Fatal(err)
	}
	err = r.Begin()
	if err == nil {
		err = plan.Run(context.Background(), r.Element)
	}
	if err == nil {
		err = r.End()
	}
	if err != nil {
		tb.Fatal(err)
	}
}

// TestSweepRunCSVAllocBudget: a sweep row costs at most two allocations,
// its cells' string and the Row slice, plus a per-run constant. Named to
// match ci.sh's no-race 'AllocBudget' pass.
func TestSweepRunCSVAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; run the allocation budget without -race (ci.sh does)")
	}
	plan := allocPlan(t)
	allocs := testing.AllocsPerRun(5, func() { runCSV(t, plan) })
	if budget := float64(2*plan.Points() + 64); allocs > budget {
		t.Fatalf("SweepPlan.Run into csv made %.0f allocations for %d points, budget %.0f", allocs, plan.Points(), budget)
	}
}

// BenchmarkSweepPlanRunCSV renders a 1024-point sweep as csv into
// io.Discard.
func BenchmarkSweepPlanRunCSV(b *testing.B) {
	plan := allocPlan(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		runCSV(b, plan)
	}
}
