package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	"mergescale/internal/report"
	"mergescale/internal/sim"
	"mergescale/internal/workload"
	"mergescale/internal/workload/datagen"
	"mergescale/internal/workload/fuzzy"
	"mergescale/internal/workload/hop"
	"mergescale/internal/workload/kmeans"
)

// runSimulate implements the simulate subcommand: one clustering workload
// on the CMP simulator, reported as per-phase cycle counts and
// memory-system statistics. The run is one engine job
// (workload.SimRunKey), so with -cachedir it shares the persistent store
// with `run`: a configuration either has simulated before replays from
// disk instead of re-simulating. The report is one document, rendered
// through the global -format backend like any experiment.
func runSimulate(args []string, rf renderFlags, ef engineFlags, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mergescale simulate", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name  = fs.String("workload", "kmeans", "workload: kmeans | fuzzy | hop")
		cores = fs.Int("cores", 16, "simulated core count (1..256)")
		scale = fs.Int("scale", 4, "divide the data-set point count by this factor (>= 1)")
		iters = fs.Int("iters", 10, "clustering iterations, kmeans and fuzzy (>= 1)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "mergescale simulate: unexpected arguments %v\n", fs.Args())
		return 2
	}
	// Checked before any data is generated, any store opened or -out
	// truncated: a scale below 1 would run at full size under its own
	// cache key, and zero iterations would fail only after datagen.
	if *scale < 1 || *iters < 1 {
		fmt.Fprintf(stderr, "mergescale simulate: -scale and -iters must be >= 1 (got %d, %d)\n", *scale, *iters)
		return 2
	}

	var w workload.Workload
	switch *name {
	case "kmeans":
		k := kmeans.New()
		k.Cfg.Iters = *iters
		w = k
	case "fuzzy":
		f := fuzzy.New()
		f.Cfg.Iters = *iters
		w = f
	case "hop":
		w = hop.New()
	default:
		fmt.Fprintf(stderr, "mergescale simulate: unknown workload %q\n", *name)
		return 2
	}
	cfg := sim.DefaultConfig(*cores)
	if err := cfg.Validate(); err != nil {
		fmt.Fprintf(stderr, "mergescale simulate: %v\n", err)
		return 2
	}
	ds, err := datagen.Generate(w.DefaultSpec())
	if err != nil {
		fmt.Fprintf(stderr, "mergescale simulate: %v\n", err)
		return 1
	}

	out, code := openOutput(rf.format, rf.outPath, stdout, stderr)
	if out == nil {
		return code
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	eng, chain := ef.engine(stderr)

	runs, err := workload.SimRuns(ctx, eng, w, ds, []sim.Config{cfg}, *scale)
	if err != nil {
		fmt.Fprintf(stderr, "mergescale simulate: %v\n", err)
		code = 1
	} else {
		code = render(out, simDocument(w, ds, cfg, *scale, runs[0]).Replay, stderr)
	}
	code = out.close(code, stderr)
	if rf.stats {
		printStats(stderr, eng, chain)
	}
	return code
}

// simDocument shapes one simulator run as a report.Document, so every
// backend renders it through the same pipeline as the paper artifacts.
func simDocument(w workload.Workload, ds *datagen.Dataset, cfg sim.Config, scale int, res workload.SimRun) *report.Document {
	d := &report.Document{
		ID:    "simulate",
		Title: fmt.Sprintf("%s on %d simulated cores (data %s, scale 1/%d)", w.Name(), cfg.Cores, ds.Spec.Label, scale),
	}
	pt := d.AddTable("phase cycles", "phase", "cycles", "share %")
	pt.AddRow("total", fmt.Sprintf("%d", res.Cycles), "100.00")
	for _, phase := range res.PhaseNames() {
		cy := res.PhaseCycles(phase)
		pt.AddRow(phase, fmt.Sprintf("%d", cy), fmt.Sprintf("%.2f", 100*float64(cy)/float64(res.Cycles)))
	}
	c := res.Counters
	mt := d.AddTable("memory system", "counter", "value")
	for _, row := range [][2]string{
		{"loads", fmt.Sprintf("%d", c.Loads)},
		{"stores", fmt.Sprintf("%d", c.Stores)},
		{"L1 hits", fmt.Sprintf("%d", c.L1Hits)},
		{"L1 misses", fmt.Sprintf("%d", c.L1Misses)},
		{"L2 hits", fmt.Sprintf("%d", c.L2Hits)},
		{"L2 misses", fmt.Sprintf("%d", c.L2Misses)},
		{"c2c transfers", fmt.Sprintf("%d", c.C2CTransfers)},
		{"invalidations", fmt.Sprintf("%d", c.Invalidations)},
		{"writebacks", fmt.Sprintf("%d", c.WriteBacks)},
		{"barriers", fmt.Sprintf("%d", c.Barriers)},
	} {
		mt.AddRow(row[0], row[1])
	}
	d.AddNote("machine: %d cores, L1 %dK/%d-way, L2 %dM/%d-way, MESI, 2D mesh",
		cfg.Cores, cfg.L1Size>>10, cfg.L1Ways, cfg.L2Size>>20, cfg.L2Ways)
	return d
}
