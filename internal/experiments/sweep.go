package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/bits"
	"sort"
	"strconv"

	"mergescale/internal/core"
	"mergescale/internal/report"
)

// This file implements design-space-as-a-service: a client-supplied
// parameter grid (model params × BCE budget × r-grid) normalized into a
// canonical SweepPlan and evaluated in plan order. The same struct backs
// POST /sweep and the `mergescale sweep` CLI subcommand, so both fronts
// validate, evaluate and render identically — byte-identical output for
// the same grid, however it arrives.
//
// Normalization is the equivalence contract: apps, budgets and the r-grid
// are sorted and deduplicated, and app names are derived from the
// parameters (client-chosen labels never reach the output). Two requests
// describing the same design space in different order therefore normalize
// to one plan and render the same bytes.
//
// Points evaluate in plan order on the calling goroutine, with no engine
// involved. A point is one closed-form model evaluation — microseconds —
// which costs less than hashing a key for it, let alone a cache lookup,
// and caching points would grow a long-running server's memory with every
// new grid. (The registry's Figs. 4, 5 and 7 call the same closed-form
// sweeps directly, inside their one experiment job.) The point is the
// emit unit: each row goes to the renderer the moment its point is
// evaluated, so no document is built. Rows never wait on one another,
// so POST /sweep does not flush per row: its body leaves as net/http's
// response buffer fills, and the rest at the document's end. The CLI's
// renderer writes straight to its output (csv and markdown per row).
//
// A row's three cells are appended into one buffer and share one string;
// the speedup cell goes through appendF2, which matches strconv's 'f' at
// precision 2 byte for byte without its big-decimal path.

// Request caps: a sweep is user-supplied work, so its size is bounded
// before any point is evaluated. The limits are generous for real design
// spaces (the paper's grids are tens of points) while keeping a single
// request from monopolizing the server.
const (
	// MaxSweepPoints caps the total evaluated grid points per request.
	MaxSweepPoints = 4096
	// MaxSweepBudget caps the BCE budget (and with r >= 1 the core count).
	MaxSweepBudget = 1 << 20
	// MaxSweepBody caps the request body in bytes.
	MaxSweepBody = 1 << 20
)

// SweepApp is one application parameterization in a sweep request. Growth
// defaults to "linear" (the paper's extended model); any name accepted by
// core.ParseGrowth works. Apps carry no client-visible label on purpose:
// canonical labels are derived from the parameters so that equivalent
// requests render the same bytes.
type SweepApp struct {
	F      float64 `json:"f"`
	FCon   float64 `json:"fcon"`
	FOred  float64 `json:"fored"`
	Growth string  `json:"growth,omitempty"`
}

// SweepRequest is the wire form of a parametric design-space sweep,
// shared verbatim by POST /sweep (JSON body) and `mergescale sweep -grid`
// (JSON file). Rs may be empty: each budget then sweeps its full
// power-of-two grid {1,2,...,N}.
//
// By default the grid sweeps symmetric designs of r BCEs per core. A
// non-zero ACMPR sweeps asymmetric designs instead: the grid values are
// the large core's size rl, next to small cores of ACMPR BCEs each. Comm
// evaluates the Section V-E communication-aware model (core.NewCommModel)
// in place of the extended Amdahl model. Both fields are omitted from the
// JSON form when unset, so a symmetric request encodes as it always has.
type SweepRequest struct {
	Apps    []SweepApp `json:"apps"`
	Budgets []int      `json:"budgets"`
	Rs      []float64  `json:"rs,omitempty"`
	ACMPR   float64    `json:"acmp_r,omitempty"`
	Comm    bool       `json:"comm,omitempty"`
}

// ParseSweepRequest decodes one JSON-encoded SweepRequest. Unknown fields
// and trailing garbage are rejected, so a typo'd grid fails loudly
// instead of sweeping the wrong space. The reader should already be
// length-capped (MaxSweepBody) by the caller.
func ParseSweepRequest(r io.Reader) (*SweepRequest, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var req SweepRequest
	if err := dec.Decode(&req); err != nil {
		return nil, fmt.Errorf("sweep: bad request body: %v", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("sweep: trailing data after request object")
	}
	return &req, nil
}

// sweepGroup is one (app, budget) pair: one table in the rendered
// document, covering a contiguous range of plan points. Model is the
// app under the plan's model, boxed once here rather than per point.
type sweepGroup struct {
	Model      core.Model
	Budget     core.Budget
	Title      string
	Start, End int // p.points[Start:End]
}

// sweepPlanPoint is one evaluated design point in plan order.
type sweepPlanPoint struct {
	Group int
	R     float64
}

// SweepPlan is a validated, normalized sweep: apps, budgets and grids are
// canonical (sorted, deduplicated, parameter-derived labels) and the total
// size is under the caps. Plans are immutable after Normalize and safe for
// concurrent Runs.
type SweepPlan struct {
	Apps    []core.AppParams
	Budgets []core.Budget
	Rs      []float64 // nil when each budget uses its power-of-two default
	ACMPR   float64   // small-core BCEs of an asymmetric plan; 0 is symmetric
	Comm    bool      // evaluate the communication-aware model

	groups []sweepGroup
	points []sweepPlanPoint
}

// sweepAppLabel derives the canonical display name from the parameters.
// The label doubles as the AppParams.Name fingerprint component, so it
// must be a pure function of the values.
func sweepAppLabel(a core.AppParams) string {
	return "f=" + fg(a.F) + " fcon=" + fg(a.FCon) + " fored=" + fg(a.FOred) + " " + a.Growth.String()
}

// fg formats a float the way %#v would inside a key: shortest round-trip.
func fg(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// finite rejects the float values JSON itself cannot carry but a Go
// caller sharing the struct could.
func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// Normalize validates the request and produces its canonical plan. Every
// rejection is a single-line reason suitable for an HTTP 400 body; no
// point is evaluated here, so malformed requests are refused for free.
func (req *SweepRequest) Normalize() (*SweepPlan, error) {
	if len(req.Apps) == 0 {
		return nil, fmt.Errorf("sweep: at least one app required")
	}
	if len(req.Budgets) == 0 {
		return nil, fmt.Errorf("sweep: at least one budget required")
	}

	apps := make([]core.AppParams, 0, len(req.Apps))
	for i, a := range req.Apps {
		if !finite(a.F) || !finite(a.FCon) || !finite(a.FOred) {
			return nil, fmt.Errorf("sweep: apps[%d]: parameters must be finite (no NaN/Inf)", i)
		}
		growth := a.Growth
		if growth == "" {
			growth = "linear"
		}
		g, err := core.ParseGrowth(growth)
		if err != nil {
			return nil, fmt.Errorf("sweep: apps[%d]: %v", i, err)
		}
		ap := core.AppParams{F: a.F, FCon: a.FCon, FOred: a.FOred, Growth: g}
		if err := ap.Validate(); err != nil {
			return nil, fmt.Errorf("sweep: apps[%d]: %v", i, err)
		}
		ap.Name = sweepAppLabel(ap)
		apps = append(apps, ap)
	}
	sort.Slice(apps, func(i, j int) bool {
		a, b := apps[i], apps[j]
		if a.F != b.F {
			return a.F < b.F
		}
		if a.FCon != b.FCon {
			return a.FCon < b.FCon
		}
		if a.FOred != b.FOred {
			return a.FOred < b.FOred
		}
		return a.Growth < b.Growth
	})
	apps = dedupe(apps, func(a, b core.AppParams) bool {
		return a.F == b.F && a.FCon == b.FCon && a.FOred == b.FOred && a.Growth == b.Growth
	})

	if r := req.ACMPR; !finite(r) {
		return nil, fmt.Errorf("sweep: acmp_r must be finite (no NaN/Inf)")
	} else if r < 0 || (r > 0 && r < 1) {
		return nil, fmt.Errorf("sweep: acmp_r = %s must be >= 1 (or absent for symmetric designs)", fg(r))
	}

	budgets := make([]core.Budget, 0, len(req.Budgets))
	for i, n := range req.Budgets {
		b := core.Budget{N: n}
		if err := b.Validate(); err != nil {
			return nil, fmt.Errorf("sweep: budgets[%d]: %v", i, err)
		}
		if n > MaxSweepBudget {
			return nil, fmt.Errorf("sweep: budgets[%d]: N = %d exceeds cap %d", i, n, MaxSweepBudget)
		}
		budgets = append(budgets, b)
	}
	sort.Slice(budgets, func(i, j int) bool { return budgets[i].N < budgets[j].N })
	budgets = dedupe(budgets, func(a, b core.Budget) bool { return a.N == b.N })
	// The smallest large core (rl = 1) leaves N-1 BCEs for small cores.
	if largest := budgets[len(budgets)-1].N; req.ACMPR > float64(largest-1) {
		return nil, fmt.Errorf("sweep: acmp_r = %s leaves no small core on any budget (largest N = %d)", fg(req.ACMPR), largest)
	}

	var rs []float64
	if len(req.Rs) > 0 {
		rs = append(rs, req.Rs...)
		for i, r := range rs {
			if !finite(r) {
				return nil, fmt.Errorf("sweep: rs[%d]: grid values must be finite (no NaN/Inf)", i)
			}
			if r < 1 {
				return nil, fmt.Errorf("sweep: rs[%d]: r = %s must be >= 1", i, fg(r))
			}
		}
		sort.Float64s(rs)
		rs = dedupe(rs, func(a, b float64) bool { return a == b })
	}

	// Bound the grid before materializing it. The point slice below
	// allocates a struct per point, so the size must be proven under the
	// cap first: a 1 MiB body can describe tens of thousands of budgets ×
	// tens of thousands of rs — a multi-billion-point product that would
	// burn CPU and memory long before its 400 if counted by building. The count here is O(budgets) and includes
	// points the build loop would skip (r exceeding the budget), so a
	// grid padded with invalid points is refused conservatively; bounding
	// the work beats indulging degenerate grids. Once over the cap the
	// tally stops, so the reported count is a lower bound — still over.
	gridPoints := 0
	for _, b := range budgets {
		if rs != nil {
			gridPoints += len(rs)
		} else {
			gridPoints += powerOfTwoGridLen(b.N)
		}
		if gridPoints > MaxSweepPoints {
			break
		}
	}
	if gridPoints*len(apps) > MaxSweepPoints {
		return nil, fmt.Errorf("sweep: %d grid points exceeds cap %d", gridPoints*len(apps), MaxSweepPoints)
	}

	p := &SweepPlan{Apps: apps, Budgets: budgets, Rs: rs, ACMPR: req.ACMPR, Comm: req.Comm}
	mode := ""
	if p.ACMPR != 0 {
		mode += " — ACMP r=" + fg(p.ACMPR)
	}
	if p.Comm {
		mode += " — comm"
	}
	for _, app := range apps {
		var m core.Model = app
		if p.Comm {
			m = core.NewCommModel(app)
		}
		for _, b := range budgets {
			grid := rs
			if grid == nil {
				grid = core.PowerOfTwoRs(b.N)
			}
			g := sweepGroup{
				Model:  m,
				Budget: b,
				Title:  app.Name + " — N=" + strconv.Itoa(b.N) + mode,
				Start:  len(p.points),
			}
			for _, r := range grid {
				if !p.valid(b, r) {
					continue // no valid design under this budget
				}
				p.points = append(p.points, sweepPlanPoint{Group: len(p.groups), R: r})
			}
			g.End = len(p.points)
			p.groups = append(p.groups, g)
		}
	}
	if len(p.points) == 0 {
		if p.ACMPR != 0 {
			return nil, fmt.Errorf("sweep: no valid design points (every rl leaves less than one small core)")
		}
		return nil, fmt.Errorf("sweep: no valid design points (every r exceeds every budget)")
	}
	// len(p.points) <= gridPoints*len(apps) <= MaxSweepPoints by the
	// pre-materialization check above; no post-hoc cap check is needed.
	return p, nil
}

// powerOfTwoGridLen is len(core.PowerOfTwoRs(n)) without the allocation:
// the number of powers of two in [1, n], i.e. floor(log2 n) + 1 for n >= 1.
func powerOfTwoGridLen(n int) int { return bits.Len(uint(n)) }

// dedupe removes adjacent duplicates from a sorted slice, in place.
func dedupe[T any](s []T, eq func(a, b T) bool) []T {
	out := s[:0]
	for _, v := range s {
		if len(out) == 0 || !eq(out[len(out)-1], v) {
			out = append(out, v)
		}
	}
	return out
}

// Points returns the number of design points the plan evaluates.
func (p *SweepPlan) Points() int { return len(p.points) }

// sweepPointStart, when non-nil, is called before every point is
// evaluated, with the point's plan index. Test-only: the first-byte
// latency test uses it to hold the final point until the first row has
// been emitted, proving rows stream before the sweep completes.
var sweepPointStart func(i int)

// xName names the grid axis: r, the per-core BCEs of a symmetric design,
// or rl, the large core's BCEs of an asymmetric one.
func (p *SweepPlan) xName() string {
	if p.ACMPR != 0 {
		return "rl"
	}
	return "r"
}

// valid reports whether grid value x is a design under budget b; an
// asymmetric design must keep at least one small core.
func (p *SweepPlan) valid(b core.Budget, x float64) bool {
	if p.ACMPR != 0 {
		return core.AsymDesign{Budget: b, RL: x, R: p.ACMPR}.Valid()
	}
	return core.SymDesign{Budget: b, R: x}.Valid()
}

// eval computes one design point at grid value x: pure arithmetic,
// microseconds. cores counts every core of the design, the large one
// included.
func (p *SweepPlan) eval(g sweepGroup, x float64) (speedup, cores float64) {
	if p.ACMPR != 0 {
		d := core.AsymDesign{Budget: g.Budget, RL: x, R: p.ACMPR}
		return g.Model.SpeedupACMP(d), 1 + d.SmallCores()
	}
	d := core.SymDesign{Budget: g.Budget, R: x}
	return g.Model.SpeedupCMP(d), d.Cores()
}

// Run evaluates the plan and streams it to emit as one document's
// elements: BeginDoc, then BeginTable, one Row per point and EndTable for
// each (app, budget) group in canonical order, then one peak note per
// group, then EndDoc. Points evaluate in plan order on the calling
// goroutine, and each row goes to emit as soon as its point is computed;
// no document is built. The run stops at the first point after ctx is
// done, or at the first emit error.
func (p *SweepPlan) Run(ctx context.Context, emit func(report.Element) error) error {
	if err := emit(report.Element{Kind: report.ElemBeginDoc, ID: "sweep", Title: "Design-space sweep"}); err != nil {
		return err
	}
	x := p.xName()
	res := make([]core.SweepPoint, len(p.points))
	var buf [96]byte
	for i, pt := range p.points {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("sweep: point %d: %w", i, err)
		}
		if hook := sweepPointStart; hook != nil {
			hook(i)
		}
		g := p.groups[pt.Group]
		if i == g.Start {
			frame := report.Table{Title: g.Title, Columns: []string{x, "cores", "speedup"}}
			if err := emit(report.Element{Kind: report.ElemBeginTable, Table: frame}); err != nil {
				return err
			}
		}
		speedup, cores := p.eval(g, pt.R)
		res[i] = core.SweepPoint{R: pt.R, Speedup: speedup}
		// One string holds the row's three cells; each cell slices it.
		b := strconv.AppendFloat(buf[:0], pt.R, 'g', -1, 64)
		i1 := len(b)
		b = strconv.AppendFloat(b, cores, 'g', -1, 64)
		i2 := len(b)
		b = appendF2(b, speedup)
		s := string(b)
		if err := emit(report.Element{Kind: report.ElemRow, Row: []string{s[:i1], s[i1:i2], s[i2:]}}); err != nil {
			return err
		}
		if i == g.End-1 {
			if err := emit(report.Element{Kind: report.ElemEndTable}); err != nil {
				return err
			}
		}
	}

	for _, g := range p.groups {
		if best, ok := core.Best(res[g.Start:g.End]); ok {
			note := g.Title + ": peak " + f2(best.Speedup) + " at " + x + "=" + fg(best.R)
			if err := emit(report.Element{Kind: report.ElemNote, Note: note}); err != nil {
				return err
			}
		}
	}
	return emit(report.Element{Kind: report.ElemEndDoc})
}
