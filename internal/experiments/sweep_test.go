package experiments

import (
	"bytes"
	"context"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mergescale/internal/engine"
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
// normalize to the same plan: same fingerprint, same point keys in the
// same order. This is the whole caching contract of POST /sweep.
func TestSweepNormalizeCanonical(t *testing.T) {
	a := mustPlan(t, sweepBody)
	b := mustPlan(t, `{"apps":[{"f":0.9,"growth":"linear"},{"f":0.975,"fcon":0.1,"fored":0.2}],"budgets":[256,64,256],"rs":[16,8,4,2,1,16]}`)
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatalf("equivalent grids fingerprint differently: %s vs %s", a.Fingerprint(), b.Fingerprint())
	}
	ka, kb := a.Keys(), b.Keys()
	if len(ka) != len(kb) {
		t.Fatalf("equivalent grids have %d vs %d point keys", len(ka), len(kb))
	}
	for i := range ka {
		if ka[i] != kb[i] {
			t.Fatalf("point %d keys differ: %s vs %s", i, ka[i], kb[i])
		}
	}
	// A genuinely different space must not collide.
	c := mustPlan(t, `{"apps":[{"f":0.9}],"budgets":[64],"rs":[1,2]}`)
	if c.Fingerprint() == a.Fingerprint() {
		t.Fatal("different grids share a fingerprint")
	}
}

// renderPlan renders one plan through format, either buffered (run to a
// document, then Replay) or streamed (plan emits elements straight into
// the renderer). The two must be byte-identical — the same guarantee the
// registry experiments carry, extended to client-supplied sweeps.
func renderPlan(t *testing.T, plan *SweepPlan, eng *engine.Engine, format string, streamed bool) []byte {
	t.Helper()
	var buf bytes.Buffer
	r, err := report.NewRenderer(format, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Begin(); err != nil {
		t.Fatal(err)
	}
	opt := Options{Engine: eng}
	if streamed {
		opt.Emit = r.Element
	}
	doc, err := plan.Run(context.Background(), opt)
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

// TestSweepRunDeterministic: across all four formats, the buffered
// rendering on a serial, uncached engine, the streamed rendering on the
// same, and cached streamed renderings at several worker counts all
// produce identical bytes. Runs
// under -race in CI, exercising the point releaser against concurrent
// OnDone callbacks.
func TestSweepRunDeterministic(t *testing.T) {
	plan := mustPlan(t, sweepBody)
	for _, format := range []string{"text", "markdown", "json", "csv"} {
		want := renderPlan(t, plan, serialEngine(), format, false)
		if len(want) == 0 {
			t.Fatalf("%s: buffered serial render is empty", format)
		}
		if got := renderPlan(t, plan, serialEngine(), format, true); !bytes.Equal(want, got) {
			t.Fatalf("%s: serial streamed render differs from buffered", format)
		}
		for _, workers := range []int{1, 2, 4} {
			eng := engine.New(engine.Config{Workers: workers})
			if got := renderPlan(t, plan, eng, format, true); !bytes.Equal(want, got) {
				t.Fatalf("%s workers=%d: engine streamed render differs from serial", format, workers)
			}
		}
	}
}

// TestSweepWarmReplayExecutesNothing: a second equivalent run on the same
// engine — even spelled in a different order — is served entirely from
// the point cache and still renders the same bytes.
func TestSweepWarmReplayExecutesNothing(t *testing.T) {
	plan := mustPlan(t, sweepBody)
	reordered := mustPlan(t, `{"apps":[{"f":0.9},{"f":0.975,"fcon":0.1,"fored":0.2}],"budgets":[256,64],"rs":[16,1,8,2,4]}`)
	eng := engine.New(engine.Config{Workers: 4})
	first := renderPlan(t, plan, eng, "text", true)
	executed := eng.Stats().Executed
	if executed == 0 {
		t.Fatal("cold sweep executed no jobs")
	}
	second := renderPlan(t, reordered, eng, "text", true)
	if again := eng.Stats().Executed; again != executed {
		t.Fatalf("warm reordered sweep executed %d new jobs, want 0", again-executed)
	}
	if !bytes.Equal(first, second) {
		t.Fatal("warm reordered sweep rendered different bytes")
	}
}

// TestSweepFirstRowBeforeLastJobCompletes is the streaming-latency gate
// (named in scripts/ci.sh): over a cold 64-point grid, the first table
// row must be released before the final grid point's job finishes. The
// sweepPointStart hook holds the last point hostage until the first row
// is observed — if rows only flushed after the whole sweep, this would
// deadlock (bounded by the timeout) instead of passing.
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
	eng := engine.New(engine.Config{Workers: 2})
	_, err := plan.Run(context.Background(), Options{Engine: eng, Emit: func(el report.Element) error {
		if el.Kind == report.ElemRow {
			once.Do(func() { close(firstRow) })
			rows++
		}
		return nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	if timedOut.Load() {
		t.Fatal("last point job finished the wait by timeout: no row was released while the sweep was still executing")
	}
	if rows != 64 {
		t.Fatalf("released %d rows, want 64", rows)
	}
}

// FuzzParseSweepRequest: no body may panic the decoder or normalizer, and
// every rejection must stay a single line. Accepted plans must produce a
// fingerprint and a full key set without panicking.
func FuzzParseSweepRequest(f *testing.F) {
	f.Add(sweepBody)
	f.Add(`{"apps":[{"f":0.9}],"budgets":[64]}`)
	f.Add(`{"apps":[{"f":1e999}],"budgets":[64]}`)
	f.Add(`{"apps":[],"budgets":[]}`)
	f.Add(`{"apps":[{"f":0.9,"growth":"amdahl"}],"budgets":[1],"rs":[1],"pin":true}`)
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
		if got := len(plan.Keys()); got != plan.Points() {
			t.Fatalf("%d keys for %d points", got, plan.Points())
		}
	})
}
