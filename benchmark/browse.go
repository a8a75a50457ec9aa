package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"mergescale/internal/engine"
	"mergescale/internal/engine/diskcache"
	"mergescale/internal/experiments"
	"mergescale/internal/faults"
	"mergescale/internal/report"
)

const (
	// browseRate is the open-loop request rate, in requests per second.
	browseRate = 500
	// browseConns bounds the connections, and so the requests in flight.
	browseConns = 2
	// browseSetupReps is how many times set-up (warming run into a fresh
	// cache directory, server boot, one pass over every key) runs;
	// setup_s is the median.
	browseSetupReps = 5
)

// browseKey is one (target, format) pair of GET /run/{target}?format=F.
type browseKey struct{ target, format string }

func (k browseKey) path() string { return "/run/" + k.target + "?format=" + k.format }

// browseKeys lists every target (each experiment and "all") in every format.
func browseKeys() []browseKey {
	var keys []browseKey
	for _, t := range append(experiments.IDs(), "all") {
		for _, f := range report.Formats() {
			keys = append(keys, browseKey{t, f})
		}
	}
	return keys
}

// clock lets the open-loop scheduler run on a fake clock in tests.
type clock interface {
	Now() time.Time
	SleepUntil(t time.Time)
}

type realClock struct{}

func (realClock) Now() time.Time { return time.Now() }

func (realClock) SleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}

// openSample is one open-loop request's timing, in ms: lat from its due
// time to completion, late from its due time to its send, sent from its
// send to completion.
type openSample struct {
	lat, late, sent float64
	err             error
}

// openLoop sends n requests on a fixed schedule, request i due at
// start + i×interval. Up to conns workers take requests in order; each
// waits for its request's due time, so when the system stalls, later
// requests queue and their latency, timed from the due time, counts the
// wait.
func openLoop(n, conns int, interval time.Duration, clk clock, op func(i int) error) []openSample {
	out := make([]openSample, n)
	start := clk.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	for range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				due := start.Add(time.Duration(i) * interval)
				clk.SleepUntil(due)
				sent := clk.Now()
				err := op(i)
				done := clk.Now()
				out[i] = openSample{lat: ms(done.Sub(due)), late: ms(sent.Sub(due)), sent: ms(done.Sub(sent)), err: err}
			}
		}()
	}
	wg.Wait()
	return out
}

// bodyCheck holds the body each key answered during set-up; every later
// response for the key must match it byte for byte.
type bodyCheck map[browseKey][]byte

func (b bodyCheck) check(k browseKey, body []byte) error {
	if !bytes.Equal(body, b[k]) {
		return fmt.Errorf("GET %s: body differs from the set-up response (%d vs %d bytes)", k.path(), len(body), len(b[k]))
	}
	return nil
}

// browsePass GETs every key once, in a seeded order, and records the bodies.
func browsePass(hc *http.Client, url string, keys []browseKey, seed int64) (bodyCheck, error) {
	bodies := bodyCheck{}
	for _, i := range rand.New(rand.NewSource(seed)).Perm(len(keys)) {
		body, err := do(hc, http.MethodGet, url+keys[i].path(), -1, nil)
		if err != nil {
			return nil, fmt.Errorf("set-up pass: %w", err)
		}
		bodies[keys[i]] = body
	}
	return bodies, nil
}

// browseTrace draws n request targets uniformly from keys.
func browseTrace(keys []browseKey, seed int64, n int) []browseKey {
	rng := rand.New(rand.NewSource(seed + 1))
	trace := make([]browseKey, n)
	for i := range trace {
		trace[i] = keys[rng.Intn(len(keys))]
	}
	return trace
}

// browseLoop runs the open loop over trace and logs each request.
func browseLoop(hc *http.Client, url string, trace []browseKey, bodies bodyCheck, log *opLog) (samples []openSample, logIdx []int) {
	samples = openLoop(len(trace), browseConns, time.Second/browseRate, realClock{}, func(i int) error {
		body, err := do(hc, http.MethodGet, url+trace[i].path(), i, nil)
		if err == nil {
			err = bodies.check(trace[i], body)
		}
		return err
	})
	for _, s := range samples {
		logIdx = append(logIdx, log.add(s.err))
	}
	return samples, logIdx
}

// checkBrowseBodies compares every key's body once with `mergescale -quick
// -format F run ID`; a difference fails every op that requested the key.
func checkBrowseBodies(e *env, bodies bodyCheck, trace []browseKey, logIdx []int, log *opLog) {
	keys := browseKeys()
	bad := make([]error, len(keys))
	var wg sync.WaitGroup
	var next atomic.Int64
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(keys) {
					return
				}
				k := keys[i]
				want, _, err := runCLI(e.bin, "-quick", "-format", k.format, "run", k.target)
				if err == nil && !bytes.Equal(bodies[k], want) {
					err = fmt.Errorf("GET %s: body differs from `mergescale -quick -format %s run %s`", k.path(), k.format, k.target)
				}
				bad[i] = err
			}
		}()
	}
	wg.Wait()
	for i, k := range keys {
		if bad[i] == nil {
			continue
		}
		for j, tk := range trace {
			if tk == k {
				log.fail(logIdx[j], bad[i])
			}
		}
	}
}

// browseSetup is one set-up: a warming `run all` into a fresh cache
// directory, server boot, one pass over every key.
func browseSetup(e *env, hc *http.Client, dir string) (*server, bodyCheck, error) {
	if _, _, err := runCLI(e.bin, "-quick", "-workers", "2", "-cachedir", dir, "run", "all"); err != nil {
		return nil, nil, fmt.Errorf("warming run: %w", err)
	}
	srv, err := startServer(e.bin, "-quick", "-workers", "2", "-cachedir", dir)
	if err != nil {
		return nil, nil, err
	}
	bodies, err := browsePass(hc, srv.url, browseKeys(), e.seed)
	if err != nil {
		_ = srv.stop()
		return nil, nil, err
	}
	return srv, bodies, nil
}

// browseE2E drives a warmed `mergescale -quick -workers 2 -cachedir DIR
// serve` child with an open loop.
func browseE2E(e *env) (*outcome, error) {
	hc := newClient(browseConns)
	defer hc.CloseIdleConnections()
	var (
		setup  []float64
		srv    *server
		bodies bodyCheck
	)
	for i := range browseSetupReps {
		if srv != nil {
			if err := srv.stop(); err != nil {
				return nil, err
			}
			hc.CloseIdleConnections()
		}
		t := time.Now()
		s, b, err := browseSetup(e, hc, filepath.Join(e.work, "cache-"+strconv.Itoa(i)))
		if err != nil {
			return nil, err
		}
		srv, bodies = s, b
		setup = append(setup, time.Since(t).Seconds())
	}
	defer srv.stop()

	var log opLog
	trace := browseTrace(browseKeys(), e.seed, int(e.seconds.Seconds()*browseRate))
	cpu0, err := srv.cpuTime()
	if err != nil {
		return nil, err
	}
	st0 := readCPUStat()
	start := time.Now()
	samples, logIdx := browseLoop(hc, srv.url, trace, bodies, &log)
	elapsed := time.Since(start)
	steal := stealPct(st0, readCPUStat())
	cpu1, err := srv.cpuTime()
	if err != nil {
		return nil, err
	}
	rss, err := srv.peakRSSMB()
	if err != nil {
		return nil, err
	}
	if err := srv.stop(); err != nil {
		return nil, err
	}
	checkBrowseBodies(e, bodies, trace, logIdx, &log)

	lat := make([]float64, len(samples))
	for i, s := range samples {
		lat[i] = s.lat
	}
	m := map[string]metric{
		"setup_s":     {median(setup), "s"},
		"work_per_s":  {float64(len(samples)) / elapsed.Seconds(), "1/s"},
		"peak_rss_mb": {rss, "MB"},
	}
	rec := map[string]any{"rate": browseRate, "conns": browseConns, "steal_pct": steal,
		"cpu_ms": ms(cpu1-cpu0) / float64(len(samples))}
	latencyMetrics(lat, m, rec)
	return log.outcome(m, rec), nil
}

// browseTraced runs half a measured run's requests in-process against
// fresh stacks: plain, then the same requests traced.
func browseTraced(e *env) (*outcome, error) {
	var log opLog
	trace := browseTrace(browseKeys(), e.seed, int(e.seconds.Seconds()*browseRate/2))
	plain, err := browseInProc(e, "plain", nil, trace, &log)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	traced, err := browseInProc(e, "traced", tr, trace, &log)
	if err != nil {
		return nil, err
	}
	if err := tr.write(e, "browse"); err != nil {
		return nil, err
	}
	m := traced.metrics(tr)
	m["trace.overhead_pct"] = metric{overheadPct(plain.lat, traced.lat), "%"}
	return log.outcome(m, map[string]any{"ops": len(traced.lat), "rate": browseRate, "conns": browseConns}), nil
}

// warmInProc is the in-process form of the warming `mergescale -quick
// -workers 2 -cachedir DIR run all`.
func warmInProc(dir string) error {
	disk, err := diskcache.Open(dir, diskcache.Options{})
	if err != nil {
		return err
	}
	eng := engine.New(engine.Config{Workers: 2, Store: faults.NewBreaker(disk, faults.BreakerOptions{})})
	r, err := report.NewRenderer("text", io.Discard)
	if err != nil {
		return err
	}
	return experiments.StreamElements(context.Background(), eng, experiments.Registry(),
		experiments.Options{Quick: true}, r.Element)
}

// browseInProc runs set-up and the trace against an in-process stack in a
// fresh cache directory.
func browseInProc(e *env, name string, tr *tracer, trace []browseKey, log *opLog) (*phase, error) {
	dir := filepath.Join(e.work, "cache-"+name)
	if err := warmInProc(dir); err != nil {
		return nil, err
	}
	st, err := openStack(dir, true, tr)
	if err != nil {
		return nil, err
	}
	defer st.close()
	hc := newClient(browseConns)
	defer hc.CloseIdleConnections()
	if tr != nil {
		tr.op.Store(-1)
	}
	bodies, err := browsePass(hc, st.url, browseKeys(), e.seed)
	if err != nil {
		return nil, err
	}

	p := &phase{st: st, hc: hc}
	if err := p.begin(e, tr); err != nil {
		return nil, err
	}
	start := time.Now()
	var samples []openSample
	var logIdx []int
	asClient(func() {
		samples, logIdx = browseLoop(hc, st.url, trace, bodies, log)
	})
	if err := p.end(); err != nil {
		return nil, err
	}
	if tr != nil {
		checkBrowseBodies(e, bodies, trace, logIdx, log)
	}
	interval := time.Second / browseRate
	for i, s := range samples {
		p.lat = append(p.lat, s.lat)
		p.sent = append(p.sent, s.sent)
		p.late = append(p.late, s.late)
		if tr != nil {
			due := start.Add(time.Duration(i) * interval)
			tr.opSpan(i, due, due.Add(time.Duration(s.lat*float64(time.Millisecond))))
		}
	}
	return p, nil
}
