package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"mergescale/internal/engine"
	"mergescale/internal/engine/diskcache"
	"mergescale/internal/experiments"
	"mergescale/internal/faults"
	"mergescale/internal/report"
	"mergescale/internal/sim"
)

// regen and replay run one fresh mergescale CLI process per op, closed
// loop, one client. Their traced runs execute each op in-process, in a
// fresh harness process (the -op child), so the process-global memos
// start cold as they do in the CLI.

// cliSetupReps is how many times a CLI workload's set-up runs; setup_s is
// the median.
const cliSetupReps = 5

// cliWorkload describes one process-per-op workload.
type cliWorkload struct {
	// setup prepares one set-up; it runs cliSetupReps times and the last
	// one stays for the timed ops. It may set args.
	setup func() error
	args  []string
	// check validates one op's stdout.
	check func(out []byte) error
	// final runs once after the timed ops; an error fails every op.
	final func() error
	// work is what one op produces, for work_per_s.
	work int
}

// checkDigest fails output that does not hash to want.
func checkDigest(out []byte, want string) error {
	if got := digest(out); got != want {
		return fmt.Errorf("output digest %.12s…, want %.12s…", got, want)
	}
	return nil
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// cliE2E runs w.args as a fresh process per op for the measured time.
func cliE2E(e *env, w *cliWorkload) (*outcome, error) {
	var setup []float64
	for range cliSetupReps {
		t := time.Now()
		if err := w.setup(); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setup = append(setup, time.Since(t).Seconds())
	}

	var log opLog
	var lat, rss, cpu []float64
	st0 := readCPUStat()
	start := time.Now()
	for time.Since(start) < e.seconds {
		t := time.Now()
		out, ru, err := runCLI(e.bin, w.args...)
		lat = append(lat, ms(time.Since(t)))
		if err == nil {
			err = w.check(out)
		}
		log.add(err)
		if ru != nil {
			rss = append(rss, float64(ru.Maxrss)/1024) // Maxrss is in KiB on Linux
			cpu = append(cpu, ms(time.Duration(ru.Utime.Nano()+ru.Stime.Nano())))
		}
	}
	elapsed := time.Since(start)
	steal := stealPct(st0, readCPUStat())
	if w.final != nil {
		if err := w.final(); err != nil {
			for i := range log.errs {
				log.fail(i, err)
			}
		}
	}

	m := map[string]metric{
		"setup_s":     {median(setup), "s"},
		"work_per_s":  {float64(len(lat)*w.work) / elapsed.Seconds(), "1/s"},
		"peak_rss_mb": {median(rss), "MB"},
	}
	rec := map[string]any{"steal_pct": steal, "cpu_ms": median(cpu)}
	latencyMetrics(lat, m, rec)
	return log.outcome(m, rec), nil
}

// opRecord is what one in-process op reports to its parent.
type opRecord struct {
	Err        string       `json:"err,omitempty"`
	Digest     string       `json:"digest"`
	ElapsedMS  float64      `json:"elapsed_ms"`
	EmitMS     float64      `json:"emit_ms"`
	GetMS      float64      `json:"get_ms"`
	PutMS      float64      `json:"put_ms"`
	SimRuns    uint64       `json:"sim_runs"`
	Engine     engine.Stats `json:"engine"`
	Puts       uint64       `json:"puts"`
	StoreBytes int64        `json:"store_bytes"`
	GCCycles   uint64       `json:"gc_cycles"`
	AllocBytes uint64       `json:"alloc_bytes"`
	Spans      []span       `json:"spans,omitempty"`
}

// cliOpMain is the -op child: one op in-process, its record on stdout.
// A non-empty cachedir adds the disk cache (replay).
func cliOpMain(cachedir string, traced bool, profile string) int {
	rec, err := cliOp(cachedir, traced, profile)
	if err != nil {
		rec.Err = err.Error()
	}
	if err := json.NewEncoder(os.Stdout).Encode(rec); err != nil {
		fmt.Fprintf(os.Stderr, "harness: %v\n", err)
		return 1
	}
	return 0
}

// cliOp wires the public pieces the way the CLI does: diskcache.Open under
// faults.NewBreaker as the engine.Store (with a cache directory),
// engine.New, then the registry through experiments.StreamElements into a
// text report.Renderer (`mergescale -quick -workers 2 run all`). The
// rendered bytes are hashed. When traced, the store and the renderer are
// decorated.
func cliOp(cachedir string, traced bool, profile string) (opRecord, error) {
	var rec opRecord
	var prof *profiler
	if profile != "" {
		var err error
		if prof, err = startProfile(profile); err != nil {
			return rec, err
		}
	}
	tr := newTracer()
	r0 := readRuntime()
	t := time.Now()

	cfg := engine.Config{Workers: 2}
	var disk *diskcache.Store
	var store *timedStore
	if cachedir != "" {
		var err error
		if disk, err = diskcache.Open(cachedir, diskcache.Options{}); err != nil {
			return rec, err
		}
		cfg.Store = faults.NewBreaker(disk, faults.BreakerOptions{})
		if traced {
			store = &timedStore{inner: cfg.Store, get: tr.layer("store.get"), put: tr.layer("store.put")}
			cfg.Store = store
		}
	}
	eng := engine.New(cfg)
	h := sha256.New()
	out, err := report.NewRenderer("text", h)
	if err != nil {
		return rec, err
	}
	renderer := out
	var emit *layerSpans
	if traced {
		emit = tr.layer("report.emit")
		renderer = &timedRenderer{inner: out, emit: emit}
	}
	err = renderer.Begin()
	if err == nil {
		err = experiments.StreamElements(context.Background(), eng, experiments.Registry(),
			experiments.Options{Quick: true}, renderer.Element)
	}
	if err == nil {
		err = renderer.End()
	}
	end := time.Now()
	r1 := readRuntime()
	if prof != nil {
		if perr := prof.stop(); perr != nil && err == nil {
			err = perr
		}
	}
	if err != nil {
		return rec, err
	}

	rec.Digest = hex.EncodeToString(h.Sum(nil))
	rec.ElapsedMS = ms(end.Sub(t))
	rec.SimRuns = sim.Runs()
	rec.Engine = eng.Stats()
	rec.GCCycles = r1.gcCycles - r0.gcCycles
	rec.AllocBytes = r1.allocBytes - r0.allocBytes
	if disk != nil {
		rec.Puts = disk.Stats().Puts
		_, rec.StoreBytes = disk.Size()
	}
	if traced {
		tr.opSpan(0, t, end)
		rec.EmitMS = ms(emit.opsBusy())
		rec.Spans = append(tr.ops, emit.spans()...)
		if store != nil {
			rec.GetMS, rec.PutMS = ms(store.get.opsBusy()), ms(store.put.opsBusy())
			rec.Spans = append(append(rec.Spans, store.get.spans()...), store.put.spans()...)
		}
	}
	return rec, nil
}

// cliChild runs one in-process op in a fresh harness process and checks
// its output digest against want. opErr is the op's own failure, counted
// against it; err is the harness failing to run it, which ends the run.
func cliChild(e *env, cachedir, want string, traced bool, profile string) (rec opRecord, opErr, err error) {
	args := []string{"-op", "-cachedir", cachedir}
	if traced {
		args = append(args, "-traced", "-profile", profile)
	}
	cmd := command(e.self, args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return rec, nil, fmt.Errorf("in-process op: %v: %s", err, lastLine(stderr.String()))
	}
	if err := json.Unmarshal(stdout.Bytes(), &rec); err != nil {
		return rec, nil, fmt.Errorf("in-process op record: %w", err)
	}
	if rec.Err != "" {
		return rec, fmt.Errorf("%s", rec.Err), nil
	}
	if rec.Digest != want {
		return rec, fmt.Errorf("rendered digest %.12s…, want %.12s…", rec.Digest, want), nil
	}
	return rec, nil, nil
}

// cliTracedMaxOps caps a traced CLI run's ops. A replay op takes a few
// milliseconds, and reading thousands of per-op profiles with go tool
// pprof took minutes.
const cliTracedMaxOps = 200

// cliTraced runs in-process ops in fresh harness processes: plain for half
// the measured time or cliTracedMaxOps ops, then the same number traced
// and profiled.
func cliTraced(e *env, name, cachedir, want string) (*outcome, error) {
	var log opLog
	var plain []float64
	start := time.Now()
	for time.Since(start) < e.seconds/2 && len(plain) < cliTracedMaxOps {
		rec, opErr, err := cliChild(e, cachedir, want, false, "")
		if err != nil {
			return nil, err
		}
		log.add(opErr)
		plain = append(plain, rec.ElapsedMS)
	}

	tr := newTracer()
	var recs []opRecord
	var profiles []string
	var tracedMS []float64
	for i := range len(plain) {
		p := filepath.Join(e.work, "op-"+strconv.Itoa(i)+".pprof")
		rec, opErr, err := cliChild(e, cachedir, want, true, p)
		if err != nil {
			return nil, err
		}
		log.add(opErr)
		recs = append(recs, rec)
		profiles = append(profiles, p)
		tracedMS = append(tracedMS, rec.ElapsedMS)
		for _, sp := range rec.Spans {
			sp.Op = i
			tr.ops = append(tr.ops, sp)
		}
	}
	if len(recs) == 0 {
		return nil, errNoOps
	}
	cpu, err := cpuByLayer(profiles...)
	if err != nil {
		return nil, err
	}
	if err := tr.write(e, name); err != nil {
		return nil, err
	}

	n := float64(len(recs))
	var sum opRecord
	var emit, get, put float64
	for _, r := range recs {
		sum.SimRuns += r.SimRuns
		sum.Engine.Executed += r.Engine.Executed
		sum.Engine.Inline += r.Engine.Inline
		sum.Engine.Hits += r.Engine.Hits
		sum.Engine.Misses += r.Engine.Misses
		sum.Engine.StoreHits += r.Engine.StoreHits
		sum.Engine.StoreMisses += r.Engine.StoreMisses
		sum.Puts += r.Puts
		sum.GCCycles += r.GCCycles
		sum.AllocBytes += r.AllocBytes
		emit += r.EmitMS
		get += r.GetMS
		put += r.PutMS
	}
	m := layerMetrics(cpu, len(recs))
	set := func(name string, v float64) { m[name] = metric{v, perLayerUnits[name]} }
	set("sim.runs", float64(sum.SimRuns)/n)
	set("engine.executed", float64(sum.Engine.Executed)/n)
	set("engine.inline", float64(sum.Engine.Inline)/n)
	set("engine.mem_hit_ratio", ratio(sum.Engine.Hits, sum.Engine.Hits+sum.Engine.Misses))
	set("engine.store_hit_ratio", ratio(sum.Engine.StoreHits, sum.Engine.StoreHits+sum.Engine.StoreMisses))
	set("store.get_ms", get/n)
	set("store.put_ms", put/n)
	set("diskcache.puts", float64(sum.Puts)/n)
	set("diskcache.bytes", float64(recs[len(recs)-1].StoreBytes))
	set("gc.cycles", float64(sum.GCCycles)/n)
	set("heap.alloc_mb", float64(sum.AllocBytes)/n/(1<<20))
	set("report.emit_ms", emit/n)
	set("trace.overhead_pct", overheadPct(plain, tracedMS))
	return log.outcome(m, map[string]any{"ops": len(recs)}), nil
}
