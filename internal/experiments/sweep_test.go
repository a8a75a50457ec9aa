package experiments

import (
	"bytes"
	"context"
	"errors"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mergescale/internal/core"
	"mergescale/internal/report"
)

// sweepBody is a well-formed 20-point request used across the tests.
const sweepBody = `{"apps":[{"f":0.975,"fcon":0.1,"fored":0.2},{"f":0.9}],"budgets":[64,256],"rs":[1,2,4,8,16]}`

// mustPlan parses and normalizes body or fails the test.
func mustPlan(t *testing.T, body string) *SweepPlan {
	t.Helper()
	req, err := ParseSweepRequest(strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := req.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// oneLine asserts an error reads as a single line — the contract that
// lets the HTTP handler return it verbatim as a 400 body.
func oneLine(t *testing.T, err error) {
	t.Helper()
	if err == nil {
		t.Fatal("expected an error")
	}
	if strings.Contains(err.Error(), "\n") {
		t.Fatalf("error spans multiple lines: %q", err)
	}
}

// TestParseSweepRequestRejects: malformed JSON bodies fail in the decoder
// with a one-line reason — before normalization, before any engine work.
func TestParseSweepRequestRejects(t *testing.T) {
	cases := []struct {
		name, body string
	}{
		{"empty", ""},
		{"truncated", `{"apps":[{"f":0.9}`},
		{"not an object", `[1,2,3]`},
		{"unknown field", `{"apps":[{"f":0.9,"name":"mine"}],"budgets":[64]}`},
		{"wrong type", `{"apps":"many","budgets":[64]}`},
		{"trailing data", sweepBody + ` {"again":true}`},
		{"huge exponent", `{"apps":[{"f":1e999}],"budgets":[64]}`},
		// "pin" was a request field once; an old client sending it is
		// told so instead of silently losing what it asked for.
		{"pin field", `{"apps":[{"f":0.9}],"budgets":[64],"pin":true}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseSweepRequest(strings.NewReader(tc.body))
			oneLine(t, err)
		})
	}
}

// TestSweepNormalizeRejects: structurally valid JSON with out-of-domain
// values is refused by Normalize with a one-line reason. The NaN/Inf
// cases build the struct directly — JSON cannot carry them, but a Go
// caller sharing SweepRequest could.
func TestSweepNormalizeRejects(t *testing.T) {
	app := SweepApp{F: 0.9}
	manyRs := make([]float64, MaxSweepPoints+1)
	for i := range manyRs {
		manyRs[i] = float64(i + 1)
	}
	cases := []struct {
		name string
		req  SweepRequest
		want string
	}{
		{"no apps", SweepRequest{Budgets: []int{64}}, "at least one app"},
		{"no budgets", SweepRequest{Apps: []SweepApp{app}}, "at least one budget"},
		{"nan f", SweepRequest{Apps: []SweepApp{{F: math.NaN()}}, Budgets: []int{64}}, "finite"},
		{"inf fcon", SweepRequest{Apps: []SweepApp{{F: 0.9, FCon: math.Inf(1)}}, Budgets: []int{64}}, "finite"},
		{"zero f", SweepRequest{Apps: []SweepApp{{F: 0}}, Budgets: []int{64}}, ""},
		{"f above one", SweepRequest{Apps: []SweepApp{{F: 1.5}}, Budgets: []int{64}}, ""},
		{"bad growth", SweepRequest{Apps: []SweepApp{{F: 0.9, Growth: "exponential"}}, Budgets: []int{64}}, ""},
		{"zero budget", SweepRequest{Apps: []SweepApp{app}, Budgets: []int{0}}, ""},
		{"negative budget", SweepRequest{Apps: []SweepApp{app}, Budgets: []int{-64}}, ""},
		{"budget over cap", SweepRequest{Apps: []SweepApp{app}, Budgets: []int{MaxSweepBudget + 1}}, "cap"},
		{"zero r", SweepRequest{Apps: []SweepApp{app}, Budgets: []int{64}, Rs: []float64{0}}, ">= 1"},
		{"negative r", SweepRequest{Apps: []SweepApp{app}, Budgets: []int{64}, Rs: []float64{-2}}, ">= 1"},
		{"nan r", SweepRequest{Apps: []SweepApp{app}, Budgets: []int{64}, Rs: []float64{math.NaN()}}, "finite"},
		{"no valid points", SweepRequest{Apps: []SweepApp{app}, Budgets: []int{2}, Rs: []float64{4, 8}}, "no valid design points"},
		{"over point cap", SweepRequest{Apps: []SweepApp{app}, Budgets: []int{MaxSweepBudget}, Rs: manyRs}, "exceeds cap"},
		// The cap counts the described grid, not just the buildable points:
		// nearly every r here exceeds the budget and would be skipped, but
		// the request is refused before any point is materialized — the
		// cheap pre-materialization bound is deliberately conservative.
		{"over cap before skips", SweepRequest{Apps: []SweepApp{app}, Budgets: []int{2}, Rs: manyRs}, "exceeds cap"},
		{"default grid over cap", SweepRequest{Apps: []SweepApp{app}, Budgets: seqBudgets(MaxSweepPoints + 1)}, "exceeds cap"},
		{"nan acmp_r", SweepRequest{Apps: []SweepApp{app}, Budgets: []int{64}, ACMPR: math.NaN()}, "finite"},
		{"inf acmp_r", SweepRequest{Apps: []SweepApp{app}, Budgets: []int{64}, ACMPR: math.Inf(1)}, "finite"},
		{"negative acmp_r", SweepRequest{Apps: []SweepApp{app}, Budgets: []int{64}, ACMPR: -4}, ">= 1"},
		{"fractional acmp_r", SweepRequest{Apps: []SweepApp{app}, Budgets: []int{64}, ACMPR: 0.5}, ">= 1"},
		// rl >= 1 leaves at most N-1 BCEs for small cores, so acmp_r = 256
		// fits no design on a 256-BCE budget.
		{"acmp_r leaves no small core", SweepRequest{Apps: []SweepApp{app}, Budgets: []int{64, 256}, ACMPR: 256}, "no small core"},
		{"acmp_r over every budget", SweepRequest{Apps: []SweepApp{app}, Budgets: []int{256}, ACMPR: 300}, "no small core"},
		{"every rl leaves a fraction of a small core", SweepRequest{Apps: []SweepApp{app}, Budgets: []int{64}, Rs: []float64{62, 63, 64}, ACMPR: 4}, "no valid design points"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := tc.req.Normalize()
			oneLine(t, err)
			if tc.want != "" && !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// seqBudgets returns the distinct budgets 1..n.
func seqBudgets(n int) []int {
	bs := make([]int, n)
	for i := range bs {
		bs[i] = i + 1
	}
	return bs
}

// TestSweepNormalizeHugeProductRejectedCheaply: the DoS guard. A small
// request body can describe a grid whose apps×budgets×rs product runs
// into the billions; Normalize must refuse it from the axis lengths
// alone, without materializing (or even iterating) the product. Before
// the pre-materialization bound this test would burn minutes of CPU and
// gigabytes of allocation on its way to the same error.
func TestSweepNormalizeHugeProductRejectedCheaply(t *testing.T) {
	budgets := seqBudgets(70000)
	rs := make([]float64, 60000)
	for i := range rs {
		rs[i] = float64(i + 1)
	}
	req := SweepRequest{Apps: []SweepApp{{F: 0.9}}, Budgets: budgets, Rs: rs}
	start := time.Now()
	_, err := req.Normalize()
	elapsed := time.Since(start)
	oneLine(t, err)
	if !strings.Contains(err.Error(), "exceeds cap") {
		t.Fatalf("error %q does not mention the cap", err)
	}
	// Generous bound: canonicalizing the axes is O(n log n) over ~130k
	// values and finishes in milliseconds; iterating the 4.2e9-point
	// product would not.
	if elapsed > 10*time.Second {
		t.Fatalf("over-cap rejection took %s; the grid was materialized before the cap check", elapsed)
	}
}

// TestSweepNormalizeCanonical: two spellings of the same design space —
// reordered axes, duplicated values, growth default spelled out — must
// normalize to the same plan: same fingerprint and byte-identical renders
// in every format. This is the whole caching contract of POST /sweep.
func TestSweepNormalizeCanonical(t *testing.T) {
	a := mustPlan(t, sweepBody)
	b := mustPlan(t, `{"apps":[{"f":0.9,"growth":"linear"},{"f":0.975,"fcon":0.1,"fored":0.2}],"budgets":[256,64,256],"rs":[16,8,4,2,1,16]}`)
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatalf("equivalent grids fingerprint differently: %s vs %s", a.Fingerprint(), b.Fingerprint())
	}
	for _, format := range []string{"text", "markdown", "json", "csv"} {
		if !bytes.Equal(renderPlan(t, a, format, true), renderPlan(t, b, format, true)) {
			t.Fatalf("%s: equivalent grids render different bytes", format)
		}
	}
	// A genuinely different space must not collide.
	c := mustPlan(t, `{"apps":[{"f":0.9}],"budgets":[64],"rs":[1,2]}`)
	if c.Fingerprint() == a.Fingerprint() {
		t.Fatal("different grids share a fingerprint")
	}
	// The same grid in another model or design family is another plan:
	// sharing a fingerprint would make the render cache serve the
	// symmetric body for it.
	seen := map[string]string{a.Fingerprint(): "symmetric"}
	for _, mode := range []string{`"comm":true`, `"acmp_r":4`, `"acmp_r":4,"comm":true`, `"acmp_r":8`} {
		p := mustPlan(t, sweepBody[:len(sweepBody)-1]+","+mode+"}")
		if prev, dup := seen[p.Fingerprint()]; dup {
			t.Fatalf("%s shares a fingerprint with %s", mode, prev)
		}
		seen[p.Fingerprint()] = mode
	}
	// Unset modes spelled out are the symmetric plan itself.
	if d := mustPlan(t, sweepBody[:len(sweepBody)-1]+`,"acmp_r":0,"comm":false}`); d.Fingerprint() != a.Fingerprint() {
		t.Fatal("explicit zero modes changed the fingerprint")
	}
}

// TestSweepPredictParity: a one-app, one-budget grid with the default
// power-of-two axis reproduces the core sweeps cell for cell in each of
// the four model modes (symmetric, asymmetric, communication-aware, and
// both), using the parameters the old standalone predictor defaulted to.
func TestSweepPredictParity(t *testing.T) {
	app := core.AppParams{F: 0.99, FCon: 0.6, FOred: 0.8, Growth: core.GrowthLinear}
	b := core.Budget{N: 256}
	grid := core.PowerOfTwoRs(b.N)
	const body = `{"apps":[{"f":0.99,"fcon":0.6,"fored":0.8}],"budgets":[256]`
	for _, tc := range []struct {
		mode, x string
		want    []core.SweepPoint
	}{
		{"", "r", core.SweepSymmetric(app, b, grid)},
		{`,"acmp_r":4`, "rl", core.SweepAsymmetric(app, b, grid, 4)},
		{`,"comm":true`, "r", core.SweepSymmetricComm(core.NewCommModel(app), b, grid)},
		{`,"acmp_r":4,"comm":true`, "rl", core.SweepAsymmetricComm(core.NewCommModel(app), b, grid, 4)},
	} {
		doc, err := mustPlan(t, body+tc.mode+"}").Run(context.Background(), nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(doc.Tables) != 1 {
			t.Fatalf("%q: %d tables, want 1", tc.mode, len(doc.Tables))
		}
		tab := doc.Tables[0]
		if tab.Columns[0] != tc.x {
			t.Errorf("%q: x column %q, want %q", tc.mode, tab.Columns[0], tc.x)
		}
		if len(tab.Rows) != len(tc.want) || len(tc.want) == 0 {
			t.Fatalf("%q: %d rows, want %d", tc.mode, len(tab.Rows), len(tc.want))
		}
		for i, pt := range tc.want {
			if row := tab.Rows[i]; row[0] != fg(pt.R) || row[2] != f2(pt.Speedup) {
				t.Errorf("%q row %d: got (%s, %s), want (%s, %s)", tc.mode, i, row[0], row[2], fg(pt.R), f2(pt.Speedup))
			}
		}
	}
}

// renderPlan renders one plan through format, either buffered (run to a
// document, then Replay) or streamed (plan emits elements straight into
// the renderer). The two must be byte-identical — the same guarantee the
// registry experiments carry, extended to client-supplied sweeps.
func renderPlan(t *testing.T, plan *SweepPlan, format string, streamed bool) []byte {
	t.Helper()
	var buf bytes.Buffer
	r, err := report.NewRenderer(format, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Begin(); err != nil {
		t.Fatal(err)
	}
	var emit func(report.Element) error
	if streamed {
		emit = r.Element
	}
	doc, err := plan.Run(context.Background(), emit)
	if err != nil {
		t.Fatal(err)
	}
	if !streamed {
		if err := doc.Replay(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.End(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSweepRunDeterministic: in all four formats, the streamed rendering
// (rows emitted as points are evaluated) is byte-identical to the buffered
// one (run to a document, then Replay), and a second run repeats it.
func TestSweepRunDeterministic(t *testing.T) {
	plan := mustPlan(t, sweepBody)
	for _, format := range []string{"text", "markdown", "json", "csv"} {
		want := renderPlan(t, plan, format, false)
		if len(want) == 0 {
			t.Fatalf("%s: buffered render is empty", format)
		}
		if got := renderPlan(t, plan, format, true); !bytes.Equal(want, got) {
			t.Fatalf("%s: streamed render differs from buffered", format)
		}
		if got := renderPlan(t, plan, format, false); !bytes.Equal(want, got) {
			t.Fatalf("%s: second buffered render differs from the first", format)
		}
	}
}

// TestSweepFirstRowBeforeLastJobCompletes is the streaming-latency gate
// (named in scripts/ci.sh): over a 64-point grid, the first table row
// must be emitted before the final grid point is evaluated. The
// sweepPointStart hook holds the last point until the first row is
// observed — if rows only went out after the whole sweep, the hook would
// wait out its timeout instead of returning at once.
func TestSweepFirstRowBeforeLastJobCompletes(t *testing.T) {
	rs := make([]string, 64)
	for i := range rs {
		rs[i] = fg(float64(i + 1))
	}
	plan := mustPlan(t, `{"apps":[{"f":0.9}],"budgets":[64],"rs":[`+strings.Join(rs, ",")+`]}`)
	if plan.Points() != 64 {
		t.Fatalf("plan has %d points, want 64", plan.Points())
	}
	last := plan.Points() - 1
	firstRow := make(chan struct{})
	var timedOut atomic.Bool
	sweepPointStart = func(i int) {
		if i != last {
			return
		}
		select {
		case <-firstRow:
		case <-time.After(30 * time.Second):
			timedOut.Store(true)
		}
	}
	defer func() { sweepPointStart = nil }()

	var once sync.Once
	rows := 0
	_, err := plan.Run(context.Background(), func(el report.Element) error {
		if el.Kind == report.ElemRow {
			once.Do(func() { close(firstRow) })
			rows++
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if timedOut.Load() {
		t.Fatal("last point finished the wait by timeout: no row was emitted while the sweep was still evaluating")
	}
	if rows != 64 {
		t.Fatalf("released %d rows, want 64", rows)
	}
}

// TestSweepRunStopsEarly: a done context or a failed emit stops the run
// at the next point, so an abandoned sweep evaluates nothing further.
func TestSweepRunStopsEarly(t *testing.T) {
	plan := mustPlan(t, sweepBody)
	evaluated := 0
	sweepPointStart = func(int) { evaluated++ }
	defer func() { sweepPointStart = nil }()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := plan.Run(ctx, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run: err = %v, want context.Canceled", err)
	}
	if evaluated != 0 {
		t.Fatalf("cancelled run evaluated %d points, want 0", evaluated)
	}

	errGone := errors.New("client gone")
	_, err := plan.Run(context.Background(), func(el report.Element) error {
		if el.Kind == report.ElemRow {
			return errGone
		}
		return nil
	})
	if !errors.Is(err, errGone) {
		t.Fatalf("failed emit: err = %v, want %v", err, errGone)
	}
	if evaluated != 1 {
		t.Fatalf("run evaluated %d points after its first row failed, want 1", evaluated)
	}
}

// FuzzParseSweepRequest: no body may panic the decoder or normalizer, and
// every rejection must stay a single line. Accepted plans must produce a
// fingerprint without panicking.
func FuzzParseSweepRequest(f *testing.F) {
	f.Add(sweepBody)
	f.Add(`{"apps":[{"f":0.9}],"budgets":[64]}`)
	f.Add(`{"apps":[{"f":1e999}],"budgets":[64]}`)
	f.Add(`{"apps":[],"budgets":[]}`)
	f.Add(`{"apps":[{"f":0.9,"growth":"amdahl"}],"budgets":[1],"rs":[1]}`)
	f.Add(`{"apps":[{"f":0.9}],"budgets":[64],"acmp_r":4,"comm":true}`)
	f.Add(`{"apps":[{"f":0.9}],"budgets":[64],"acmp_r":-4}`)
	f.Add(`{"apps":[{"f":0.9}],"budgets":[64],"acmp_r":0.5}`)
	f.Add(`{"apps":[{"f":0.9}],"budgets":[256],"acmp_r":300}`)
	f.Add(`{"apps":[{"f":0.9}],"budgets":[64],"acmp_r":1e999}`)
	f.Add(`[]`)
	f.Add(``)
	f.Fuzz(func(t *testing.T, body string) {
		req, err := ParseSweepRequest(strings.NewReader(body))
		if err != nil {
			if strings.Contains(err.Error(), "\n") {
				t.Fatalf("decoder error spans multiple lines: %q", err)
			}
			return
		}
		plan, err := req.Normalize()
		if err != nil {
			if strings.Contains(err.Error(), "\n") {
				t.Fatalf("normalize error spans multiple lines: %q", err)
			}
			return
		}
		if plan.Points() == 0 || plan.Points() > MaxSweepPoints {
			t.Fatalf("accepted plan has %d points", plan.Points())
		}
		if plan.Fingerprint() == "" {
			t.Fatal("accepted plan has empty fingerprint")
		}
	})
}
