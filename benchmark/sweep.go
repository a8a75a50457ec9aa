package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"mergescale/internal/experiments"
)

// Sweep grids: 8 apps × budgets {64, 256} × r 1..64 = 1024 points. Four
// apps come from a pool computed at set-up (engine memory hits), four are
// new draws (computed and entered in the engine's memory cache). The
// server runs without a disk cache: see the package comment.
const (
	sweepPoolApps    = 256
	sweepAppsPerOp   = 8
	sweepPooledPerOp = 4
	// sweepSetupReps is how many times set-up (server boot, /readyz, pool
	// seeding) runs; setup_s is the median.
	sweepSetupReps = 5
	// Every sweepSampleEvery-th op, up to sweepSamples of them, is compared
	// byte for byte with `mergescale sweep -nocache` after the timed phase.
	sweepSamples     = 4
	sweepSampleEvery = 25
	// sweepRSSOps is the op count after which peak_rss_mb is read. The
	// engine's memory cache grows with every new point, so a figure read
	// at the end would follow how many ops the run managed.
	sweepRSSOps = 1000
)

var (
	sweepBudgets = []int{64, 256}
	sweepRs      = func() []float64 {
		rs := make([]float64, 64)
		for i := range rs {
			rs[i] = float64(i + 1)
		}
		return rs
	}()
	sweepPointsPerApp = len(sweepBudgets) * len(sweepRs)
)

// sweepGen draws the sweep inputs from the seed.
type sweepGen struct {
	rng  *rand.Rand
	pool []experiments.SweepApp
	seen map[experiments.SweepApp]bool
}

func newSweepGen(seed int64) *sweepGen {
	g := &sweepGen{rng: rand.New(rand.NewSource(seed)), seen: map[experiments.SweepApp]bool{}}
	for range sweepPoolApps {
		g.pool = append(g.pool, g.fresh())
	}
	return g
}

// fresh draws an app no earlier grid used.
func (g *sweepGen) fresh() experiments.SweepApp {
	round := func(x float64) float64 { return math.Round(x*1e4) / 1e4 }
	for {
		a := experiments.SweepApp{
			F:     0.5 + round(0.5*g.rng.Float64()),
			FCon:  round(g.rng.Float64()),
			FOred: round(1.5 * g.rng.Float64()),
		}
		if !g.seen[a] {
			g.seen[a] = true
			return a
		}
	}
}

func sweepGrid(apps []experiments.SweepApp) []byte {
	b, err := json.Marshal(experiments.SweepRequest{Apps: apps, Budgets: sweepBudgets, Rs: sweepRs})
	if err != nil {
		panic(err) // plain structs of finite floats always encode
	}
	return b
}

// seedGrids are the set-up requests: the pool, sweepAppsPerOp apps each.
func (g *sweepGen) seedGrids() [][]byte {
	var grids [][]byte
	for i := 0; i < len(g.pool); i += sweepAppsPerOp {
		grids = append(grids, sweepGrid(g.pool[i:min(i+sweepAppsPerOp, len(g.pool))]))
	}
	return grids
}

// next is the next op's grid: sweepPooledPerOp pool apps, the rest new.
func (g *sweepGen) next() []byte {
	var apps []experiments.SweepApp
	for _, i := range g.rng.Perm(len(g.pool))[:sweepPooledPerOp] {
		apps = append(apps, g.pool[i])
	}
	for len(apps) < sweepAppsPerOp {
		apps = append(apps, g.fresh())
	}
	return sweepGrid(apps)
}

// checkSweepRows checks a CSV sweep body has one data row per grid point.
func checkSweepRows(body []byte, apps int) error {
	rows := 0
	for _, line := range bytes.Split(body, []byte("\n")) {
		if len(line) == 0 || line[0] == '#' || string(line) == "r,cores,speedup" {
			continue
		}
		rows++
	}
	if want := apps * sweepPointsPerApp; rows != want {
		return fmt.Errorf("sweep body has %d rows, want %d", rows, want)
	}
	return nil
}

func postSweep(hc *http.Client, url string, op int, grid []byte, apps int) ([]byte, error) {
	body, err := do(hc, http.MethodPost, url+"/sweep?format=csv", op, grid)
	if err == nil {
		err = checkSweepRows(body, apps)
	}
	return body, err
}

// seedPool posts the pool grids; their ops are numbered -1, -2, ...
func seedPool(hc *http.Client, url string, gen *sweepGen) error {
	for i, grid := range gen.seedGrids() {
		if _, err := postSweep(hc, url, -1-i, grid, sweepAppsPerOp); err != nil {
			return fmt.Errorf("seeding the pool: %w", err)
		}
	}
	return nil
}

// sweepSample is a response kept for the byte-for-byte check; op is its
// index in the opLog.
type sweepSample struct {
	op         int
	grid, body []byte
}

// sweepLoop posts grids back to back over one connection while more(i)
// holds. before, when non-nil, runs ahead of op i outside its timing.
func sweepLoop(hc *http.Client, url string, gen *sweepGen, log *opLog, more func(i int) bool,
	before func(i int)) (lat []float64, samples []sweepSample) {
	for i := 0; more(i); i++ {
		grid := gen.next()
		if before != nil {
			before(i)
		}
		t := time.Now()
		body, err := postSweep(hc, url, i, grid, sweepAppsPerOp)
		lat = append(lat, ms(time.Since(t)))
		op := log.add(err)
		if err == nil && i%sweepSampleEvery == 0 && len(samples) < sweepSamples {
			samples = append(samples, sweepSample{op: op, grid: grid, body: body})
		}
	}
	return lat, samples
}

// checkSweepSamples compares each kept response with `mergescale sweep
// -nocache` on the same grid; a difference fails that op.
func checkSweepSamples(e *env, samples []sweepSample, log *opLog) error {
	for _, s := range samples {
		path := filepath.Join(e.work, "grid-"+strconv.Itoa(s.op)+".json")
		if err := os.WriteFile(path, s.grid, 0o644); err != nil {
			return err
		}
		want, _, err := runCLI(e.bin, "sweep", "-nocache", "-format", "csv", "-grid", path)
		if err != nil {
			log.fail(s.op, err)
			continue
		}
		if !bytes.Equal(s.body, want) {
			log.fail(s.op, fmt.Errorf("sweep op %d: body differs from `mergescale sweep -nocache`", s.op))
		}
	}
	return nil
}

// sweepE2E drives a `mergescale -workers 2 serve` child.
func sweepE2E(e *env) (*outcome, error) {
	hc := newClient(1)
	defer hc.CloseIdleConnections()
	var (
		setup []float64
		srv   *server
		gen   *sweepGen
	)
	for range sweepSetupReps {
		if srv != nil {
			if err := srv.stop(); err != nil {
				return nil, err
			}
			hc.CloseIdleConnections()
		}
		t := time.Now()
		s, err := startServer(e.bin, "-workers", "2")
		if err != nil {
			return nil, err
		}
		srv, gen = s, newSweepGen(e.seed)
		if err := seedPool(hc, srv.url, gen); err != nil {
			_ = srv.stop()
			return nil, err
		}
		setup = append(setup, time.Since(t).Seconds())
	}
	defer srv.stop()

	var log opLog
	cpu0, err := srv.cpuTime()
	if err != nil {
		return nil, err
	}
	var rss float64
	rssOps := 0
	readRSS := func(i int) {
		if rssOps == 0 && err == nil {
			rss, err = srv.peakRSSMB()
			rssOps = i
		}
	}
	st0 := readCPUStat()
	start := time.Now()
	lat, samples := sweepLoop(hc, srv.url, gen, &log, func(int) bool { return time.Since(start) < e.seconds },
		func(i int) {
			if i == sweepRSSOps {
				readRSS(i)
			}
		})
	elapsed := time.Since(start)
	steal := stealPct(st0, readCPUStat())
	readRSS(len(lat))
	if err != nil {
		return nil, err
	}
	cpu1, err := srv.cpuTime()
	if err != nil {
		return nil, err
	}
	if err := srv.stop(); err != nil {
		return nil, err
	}
	if err := checkSweepSamples(e, samples, &log); err != nil {
		return nil, err
	}

	m := map[string]metric{
		"setup_s":     {median(setup), "s"},
		"work_per_s":  {float64(len(lat)*sweepAppsPerOp*sweepPointsPerApp) / elapsed.Seconds(), "1/s"},
		"peak_rss_mb": {rss, "MB"},
	}
	rec := map[string]any{"checked_bodies": len(samples), "steal_pct": steal, "rss_after_ops": rssOps,
		"cpu_ms": ms(cpu1-cpu0) / float64(len(lat))}
	latencyMetrics(lat, m, rec)
	return log.outcome(m, rec), nil
}

// sweepTraced runs the sweep ops in-process: plain for half the measured
// time, then the same ops from the same seed, traced.
func sweepTraced(e *env) (*outcome, error) {
	var log opLog
	plain, err := sweepInProc(e, nil, &log, e.seconds/2, 0)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	traced, err := sweepInProc(e, tr, &log, 0, len(plain.lat))
	if err != nil {
		return nil, err
	}
	if err := tr.write(e, "sweep"); err != nil {
		return nil, err
	}
	m := traced.metrics(tr)
	m["trace.overhead_pct"] = metric{overheadPct(plain.lat, traced.lat), "%"}
	return log.outcome(m, map[string]any{"ops": len(traced.lat)}), nil
}

// sweepInProc runs set-up and the timed sweep ops against a fresh
// in-process stack, for d or for n ops.
func sweepInProc(e *env, tr *tracer, log *opLog, d time.Duration, n int) (*phase, error) {
	st, err := openStack("", false, tr)
	if err != nil {
		return nil, err
	}
	defer st.close()
	hc := newClient(1)
	defer hc.CloseIdleConnections()
	gen := newSweepGen(e.seed)
	if err := seedPool(hc, st.url, gen); err != nil {
		return nil, err
	}

	p := &phase{st: st, hc: hc}
	if err := p.begin(e, tr); err != nil {
		return nil, err
	}
	var before func(int)
	var starts []time.Time
	if tr != nil {
		before = func(int) { starts = append(starts, time.Now()) }
	}
	start := time.Now()
	more := func(i int) bool { return i < n }
	if n == 0 {
		more = func(int) bool { return time.Since(start) < d }
	}
	var samples []sweepSample
	asClient(func() {
		p.lat, samples = sweepLoop(hc, st.url, gen, log, more, before)
	})
	if err := p.end(); err != nil {
		return nil, err
	}
	p.sent = p.lat
	for i, t := range starts {
		tr.opSpan(i, t, t.Add(time.Duration(p.lat[i]*float64(time.Millisecond))))
	}
	if len(p.lat) == 0 {
		return nil, errNoOps
	}
	if err := checkSweepSamples(e, samples, log); err != nil {
		return nil, err
	}
	return p, nil
}
