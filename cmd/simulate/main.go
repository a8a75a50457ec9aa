// Command simulate runs one clustering workload on the CMP simulator and
// prints per-phase cycle counts and memory-system statistics.
//
// Usage:
//
//	simulate -workload kmeans -cores 16 [-scale 4] [-iters 10]
//	         [-format F] [-out FILE]
//	         [-cachedir DIR] [-cachettl D] [-nocache] [-stats]
//
// The run goes through the experiment engine, so with -cachedir it shares
// the persistent result cache with cmd/mergescale: a configuration that
// either command has simulated before is replayed from disk instead of
// re-simulated.
//
// -format selects the output backend. text (the default) keeps the
// classic aligned terminal report; markdown, json, and csv render the run
// as a report.Document through the same streaming pipeline cmd/mergescale
// uses, so downstream consumers see one schema. simulate emits a single
// document, which is written the moment the run resolves.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"mergescale/internal/engine"
	"mergescale/internal/engine/diskcache"
	"mergescale/internal/report"
	"mergescale/internal/sim"
	"mergescale/internal/workload"
	"mergescale/internal/workload/datagen"
	"mergescale/internal/workload/fuzzy"
	"mergescale/internal/workload/hop"
	"mergescale/internal/workload/kmeans"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: parses args, executes, and returns the
// process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("simulate", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name     = fs.String("workload", "kmeans", "workload: kmeans | fuzzy | hop")
		cores    = fs.Int("cores", 16, "simulated core count (1..256)")
		scale    = fs.Int("scale", 4, "divide the data-set point count by this factor")
		iters    = fs.Int("iters", 10, "clustering iterations (kmeans/fuzzy)")
		format   = fs.String("format", "text", "output format: text | markdown | json | csv")
		outPath  = fs.String("out", "", "write the report to this file instead of stdout")
		cachedir = fs.String("cachedir", "", "persist simulation results to this directory across runs")
		cachettl = fs.Duration("cachettl", 0, "expire disk-cache entries older than this (0 = never)")
		nocache  = fs.Bool("nocache", false, "disable the result cache (memory and disk)")
		stats    = fs.Bool("stats", false, "print cache statistics to stderr")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	// A negative TTL parses fine but would expire every disk entry on
	// sight, turning the shared cache into a silent no-op. Reject it.
	if *cachettl < 0 {
		fmt.Fprintf(stderr, "simulate: -cachettl must be >= 0 (got %s)\n", *cachettl)
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
		fmt.Fprintf(stderr, "unknown workload %q\n", *name)
		return 2
	}

	cfg := sim.DefaultConfig(*cores)
	if err := cfg.Validate(); err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	ds, err := datagen.Generate(w.DefaultSpec())
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}

	if *format != "text" {
		// Fail on a bad -format before simulating anything or truncating
		// -out (os.Create would destroy the previous report file).
		if _, err := report.NewRenderer(*format, io.Discard); err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
	}
	out := stdout
	var outFile *os.File
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			fmt.Fprintf(stderr, "simulate: %v\n", err)
			return 1
		}
		outFile = f
		out = f
	}

	engCfg := engine.Config{Workers: 1, DisableCache: *nocache}
	var store *diskcache.Store
	if *cachedir != "" && !*nocache {
		s, err := diskcache.Open(*cachedir, diskcache.Options{TTL: *cachettl})
		if err != nil {
			fmt.Fprintf(stderr, "simulate: disk cache disabled: %v\n", err)
		} else {
			store = s
			engCfg.Store = s
		}
	}
	eng := engine.New(engCfg)

	runs, err := workload.SimRuns(context.Background(), eng, w, ds, []sim.Config{cfg}, *scale)
	if err != nil {
		fmt.Fprintln(stderr, err)
		if outFile != nil {
			outFile.Close()
		}
		return 1
	}
	res := runs[0]

	code := 0
	if *format == "text" {
		printText(out, w, ds, cfg, *scale, res)
	} else if err := report.RenderDocument(out, *format, simDocument(w, ds, cfg, *scale, res)); err != nil {
		fmt.Fprintf(stderr, "simulate: render: %v\n", err)
		code = 1
	}
	if outFile != nil {
		if err := outFile.Close(); err != nil && code == 0 {
			fmt.Fprintf(stderr, "simulate: %v\n", err)
			code = 1
		}
	}
	if *stats {
		st := eng.Stats()
		fmt.Fprintf(stderr, "engine: %d executed, memory cache %d hits / %d misses\n", st.Executed, st.Hits, st.Misses)
		if store != nil {
			dst := store.Stats()
			fmt.Fprintf(stderr, "disk: %d hits / %d misses, %d writes, %d evictions, %d expired, %d dropped\n",
				st.StoreHits, st.StoreMisses, dst.Puts, dst.Evictions, dst.Expired, dst.Dropped)
		}
	}
	return code
}

// printText emits the classic aligned terminal report, byte-identical to
// the pre-streaming simulate output.
func printText(out io.Writer, w workload.Workload, ds *datagen.Dataset, cfg sim.Config, scale int, res workload.SimRun) {
	fmt.Fprintf(out, "workload  %s  (data %s, scale 1/%d)\n", w.Name(), ds.Spec.Label, scale)
	fmt.Fprintf(out, "machine   %d cores, L1 %dK/%d-way, L2 %dM/%d-way, MESI, 2D mesh\n",
		cfg.Cores, cfg.L1Size>>10, cfg.L1Ways, cfg.L2Size>>20, cfg.L2Ways)
	fmt.Fprintf(out, "cycles    %d total\n", res.Cycles)
	for _, phase := range res.PhaseNames() {
		cy := res.PhaseCycles(phase)
		fmt.Fprintf(out, "  %-10s %12d cycles  (%5.2f%%)\n", phase, cy, 100*float64(cy)/float64(res.Cycles))
	}
	c := res.Counters
	fmt.Fprintf(out, "memory    loads %d, stores %d\n", c.Loads, c.Stores)
	fmt.Fprintf(out, "          L1 hits %d / misses %d, L2 hits %d / misses %d\n", c.L1Hits, c.L1Misses, c.L2Hits, c.L2Misses)
	fmt.Fprintf(out, "coherence c2c transfers %d, invalidations %d, writebacks %d\n", c.C2CTransfers, c.Invalidations, c.WriteBacks)
	fmt.Fprintf(out, "sync      %d barriers\n", c.Barriers)
}

// simDocument shapes one simulator run as a report.Document so the
// markdown/json/csv backends (and any future multi-run sweep) render it
// through the same pipeline as the paper artifacts.
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
