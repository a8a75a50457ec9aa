// Command mergescale regenerates the paper's tables and figures, runs
// single workloads on the CMP simulator, and sweeps the analytical model.
//
// Usage:
//
//	mergescale -list
//	mergescale [-quick] [-format F] [-out FILE] [-duration]
//	           [-workers N] [-cachedir DIR] [-nocache]
//	           [-faults SPEC] [-stats]
//	           run <experiment-id>|all
//	mergescale [-format F] [-out FILE] [-workers N] [-cachedir DIR]
//	           [-nocache] [-faults SPEC] [-stats]
//	           simulate [-workload kmeans|fuzzy|hop] [-cores N]
//	           [-scale S] [-iters I]
//	mergescale [-quick] [-duration] [-workers N] [-cachedir DIR]
//	           [-nocache] [-faults SPEC] serve [-addr HOST:PORT]
//	           [-maxstreams N] [-reqtimeout D] [-draintimeout D]
//	mergescale sweep [-grid FILE|-] [-format F] [-out FILE] [-timing]
//	           [-nocache]
//
// Experiment ids follow the paper's artifact numbering (table1..table4,
// fig2a..fig7) plus the abl-* ablations; see DESIGN.md for the index.
//
// Experiments execute concurrently on the engine worker pool (one job per
// artifact; per-core simulator runs shard into sub-jobs), but the output
// is always rendered in registry order, so a parallel run is
// byte-identical to -workers 1.
//
// Output always goes through the streaming report pipeline
// (experiments.StreamElements): -format selects the backend (text,
// markdown, json, csv — all byte-deterministic), and each experiment's
// document is rendered as soon as it and everything before it in registry
// order is ready, so time-to-first-output is the first artifact's, not
// the whole run's. A failing experiment stops the run: the documents
// before it stay on stdout, none of its own is written, the error goes to
// stderr, and the exit code is 1.
//
// With -cachedir, results persist across processes: a second run against a
// warm cache directory replays every artifact from disk without running a
// single simulation. Entries never expire (a cached value is
// deterministic in its key); wall-clock (-duration) results are never
// cached.
//
// The serve subcommand boots the HTTP front end (internal/serve) over the
// same engine and cache: GET /run/{id|all}?format=F streams each
// experiment's rendering over chunked transfer as it resolves, with every
// concurrent client sharing one engine's singleflight and disk cache:
// identical requests compute once, and each renders its own body.
// -maxstreams (off by default) caps concurrent streams and -reqtimeout
// bounds each one; GET /metrics exposes Prometheus text-format
// counters. See docs/ARCHITECTURE.md "Serving" and "Serving under load".
//
// The simulate subcommand runs one clustering workload on the CMP
// simulator and reports per-phase cycle counts and memory-system
// statistics as one document. It takes run's global flags except -quick
// and -duration (usage errors there); its run is one engine job, so
// -cachedir shares results with run.
//
// The sweep subcommand evaluates a parametric design-space grid (a JSON
// description of apps × budgets × r values — the exact POST /sweep
// request body) and renders the tables row by row: grid points are
// evaluated in canonical order with no engine or cache, and each table
// row goes to the renderer the moment its point is computed (csv and
// markdown write it then, text at its table's end, json at the
// document's end). The bytes are
// identical to the POST /sweep response for the same grid and format.
// The grid's optional "acmp_r" and "comm" fields select asymmetric
// designs and the communication-aware model.
//
// -faults SPEC (run, simulate, serve; requires -cachedir) arms the
// deterministic fault injector over the disk store — see internal/faults
// for the grammar (e.g. "seed=7,get.err=0.01,put.enospc=1/50"). The
// engine reads the store through a circuit breaker either way: enough
// consecutive store faults trip it open and the process degrades to
// memory + compute — identical bytes, no disk reuse — probing the store
// again after a cooldown. Injection never alters cache keys, envelope
// contents, or rendered output; with the flag unset the injector is
// entirely absent from the call path.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"os/signal"
	"slices"
	"syscall"

	"mergescale/internal/engine"
	"mergescale/internal/engine/diskcache"
	"mergescale/internal/experiments"
	"mergescale/internal/faults"
	"mergescale/internal/report"
	"mergescale/internal/serve"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: parses args, executes, and returns the
// process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mergescale", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		list      = fs.Bool("list", false, "list available experiments and exit")
		quickRun  = fs.Bool("quick", false, "shrink data sets and grids for a fast run")
		format    = fs.String("format", "text", "output format: text | markdown | json | csv")
		outPath   = fs.String("out", "", "write rendered output to this file instead of stdout")
		duration  = fs.Bool("duration", false, "base native experiments on wall time instead of op counts")
		workers   = fs.Int("workers", 0, "engine worker count (0 = GOMAXPROCS, 1 = serial)")
		cachedir  = fs.String("cachedir", "", "persist engine results to this directory across runs")
		nocache   = fs.Bool("nocache", false, "disable the engine result cache (memory and disk)")
		faultSpec = fs.String("faults", "", "inject deterministic disk-store faults per this spec, e.g. seed=7,get.err=0.01 (requires -cachedir; see internal/faults)")
		stats     = fs.Bool("stats", false, "print engine cache/worker statistics to stderr")
	)
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: mergescale [-quick] [-format F] [-out FILE] [-duration] [-workers N] [-cachedir DIR] [-nocache] [-faults SPEC] [-stats] run <id>|all\n       mergescale [-format F] [-out FILE] [-workers N] [-cachedir DIR] [-nocache] [-faults SPEC] [-stats] simulate [-workload kmeans|fuzzy|hop] [-cores N] [-scale S] [-iters I]\n       mergescale [-quick] [-duration] [-workers N] [-cachedir DIR] [-nocache] [-faults SPEC] serve [-addr HOST:PORT] [-maxstreams N] [-reqtimeout D] [-draintimeout D]\n       mergescale sweep [-grid FILE|-] [-format F] [-out FILE] [-timing] [-nocache]\n       mergescale -list\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	// A negative -workers parses fine but would silently select
	// GOMAXPROCS. Reject it up front.
	if *workers < 0 {
		fmt.Fprintf(stderr, "mergescale: -workers must be >= 0 (got %d)\n", *workers)
		return 2
	}
	spec, err := faults.ParseSpec(*faultSpec)
	if err != nil {
		fmt.Fprintf(stderr, "mergescale: -faults: %v\n", err)
		return 2
	}
	if spec.Active() && (*cachedir == "" || *nocache) {
		fmt.Fprintf(stderr, "mergescale: -faults requires -cachedir (and no -nocache): faults inject into the disk store\n")
		return 2
	}

	if *list {
		for _, e := range experiments.Registry() {
			fmt.Fprintf(stdout, "%-14s %s\n", e.ID, e.Title)
		}
		return 0
	}

	ef := engineFlags{workers: *workers, cachedir: *cachedir, nocache: *nocache, faults: spec}
	opt := experiments.Options{Quick: *quickRun, UseDuration: *duration}
	rest := fs.Args()
	sub := ""
	if len(rest) > 0 {
		sub = rest[0]
	}
	switch sub {
	case "sweep":
		// Sweep owns its whole flag surface (it re-declares the rendering
		// flags it honors), so any global flag is a mistake.
		if rejectGlobals(fs, stderr, sub, "see mergescale sweep -h") {
			return 2
		}
		return runSweep(rest[1:], stdout, stderr)
	case "serve":
		// The rendering flags are per-request (format) or meaningless for a
		// long-running server (out, stats); silently ignoring them would
		// render something other than what was asked for. Reject them.
		if rejectGlobals(fs, stderr, sub, "format is per-request: /run/{id}?format=F", "format", "out", "stats") {
			return 2
		}
		return runServe(rest[1:], opt, ef, stderr)
	}

	rf := renderFlags{format: *format, outPath: *outPath, stats: *stats}
	if sub == "simulate" {
		// The experiment sizing flags mean nothing for one simulated run,
		// which is sized by its own -scale and -iters.
		if rejectGlobals(fs, stderr, sub, "size the run with -scale and -iters", "quick", "duration") {
			return 2
		}
		return runSimulate(rest[1:], rf, ef, stdout, stderr)
	}
	if len(rest) != 2 || sub != "run" {
		fs.Usage()
		return 2
	}

	var targets []experiments.Experiment
	if rest[1] == "all" {
		targets = experiments.Registry()
	} else {
		e, err := experiments.ByID(rest[1])
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		targets = []experiments.Experiment{e}
	}

	out, code := openOutput(rf.format, rf.outPath, stdout, stderr)
	if out == nil {
		return code
	}
	// Ctrl-C or SIGTERM cancels in-flight jobs instead of killing
	// mid-write — SIGTERM matters in containers, where the runtime sends
	// it on stop and an untrapped run would die without cancelling jobs
	// (serve has always trapped both; run now matches).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	eng, chain := ef.engine(stderr)

	// Each document is rendered the moment its job resolves, released in
	// registry order.
	code = render(out, func(r report.Renderer) error {
		return experiments.StreamElements(ctx, eng, targets, opt, r.Element)
	}, stderr)
	code = out.close(code, stderr)
	if rf.stats {
		printStats(stderr, eng, chain)
	}
	return code
}

// rejectGlobals reports, as a usage error, the first global flag set
// before subcommand sub that sub does not take: any set flag when names
// is empty, else only those named. hint ends the message.
func rejectGlobals(fs *flag.FlagSet, stderr io.Writer, sub, hint string, names ...string) bool {
	conflict := ""
	fs.Visit(func(f *flag.Flag) {
		if conflict == "" && (len(names) == 0 || slices.Contains(names, f.Name)) {
			conflict = f.Name
		}
	})
	if conflict != "" {
		fmt.Fprintf(stderr, "mergescale: -%s does not apply to %s (%s)\n", conflict, sub, hint)
	}
	return conflict != ""
}

// renderFlags are the global output flags run and simulate honor.
type renderFlags struct {
	format  string
	outPath string
	stats   bool
}

// output is a render destination: stdout, or the -out file, behind a
// buffer that reaches the destination once per document. The renderers
// write line by line; unbuffered, every line would be its own write call.
type output struct {
	report.Renderer
	buf  *bufio.Writer
	file *os.File
}

// outputBufSize holds a whole document, so each one leaves in one write.
const outputBufSize = 64 << 10

// openOutput returns a renderer for format over stdout, or over path when
// set. The format is checked before path is created, so a typo never
// truncates the previous report. A nil output comes with the exit code of
// the error already printed.
func openOutput(format, path string, stdout, stderr io.Writer) (*output, int) {
	if _, err := report.NewRenderer(format, io.Discard); err != nil {
		fmt.Fprintln(stderr, err)
		return nil, 2
	}
	o := &output{}
	w := stdout
	if path != "" {
		f, err := os.Create(path)
		if err != nil {
			fmt.Fprintf(stderr, "mergescale: %v\n", err)
			return nil, 1
		}
		o.file, w = f, f
	}
	o.buf = bufio.NewWriterSize(w, outputBufSize)
	o.Renderer, _ = report.NewRenderer(format, o.buf)
	return o, 0
}

// Element renders el and flushes after each document's last element, so
// every document reaches the reader as soon as it is released.
func (o *output) Element(el report.Element) error {
	if err := o.Renderer.Element(el); err != nil {
		return err
	}
	if el.Kind == report.ElemEndDoc {
		return o.buf.Flush()
	}
	return nil
}

// close flushes what is left, closes the -out file, if any, and folds a
// flush or close error into code.
func (o *output) close(code int, stderr io.Writer) int {
	err := o.buf.Flush()
	if o.file != nil {
		if cerr := o.file.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil && code == 0 {
		fmt.Fprintf(stderr, "mergescale: %v\n", err)
		return 1
	}
	return code
}

// render frames one element stream into r — Begin, whatever stream
// feeds it, End — and returns the exit code.
func render(r report.Renderer, stream func(report.Renderer) error, stderr io.Writer) int {
	err := r.Begin()
	if err == nil {
		err = stream(r)
	}
	if err == nil {
		err = r.End()
	}
	if err != nil {
		fmt.Fprintf(stderr, "mergescale: %v\n", err)
		return 1
	}
	return 0
}

// engineFlags are the global engine and cache flags run, simulate and
// serve share.
type engineFlags struct {
	workers  int
	cachedir string
	nocache  bool
	faults   faults.Spec
}

// engine builds the engine, over the persistent store chain when
// -cachedir is set and -nocache is not.
func (ef engineFlags) engine(stderr io.Writer) (*engine.Engine, storeChain) {
	cfg := engine.Config{Workers: ef.workers, DisableCache: ef.nocache}
	var chain storeChain
	if ef.cachedir != "" && !ef.nocache {
		chain = openStoreChain(ef.cachedir,
			diskcache.Options{Log: log.New(stderr, "mergescale: ", 0)},
			ef.faults, stderr)
		cfg.Store = chain.store()
	}
	return engine.New(cfg), chain
}

// storeChain is one process's persistent-store stack: the disk cache at
// the bottom, the optional fault injector spliced into its file I/O and
// its store boundary, and the circuit breaker on top. The engine only
// ever talks to the breaker, so a store gone bad degrades the process to
// memory + compute instead of queueing every job on a dead disk.
type storeChain struct {
	disk     *diskcache.Store
	injector *faults.Injector
	breaker  *faults.Breaker
}

// store returns the engine-facing store, nil when no disk cache opened.
func (c storeChain) store() engine.Store {
	if c.breaker == nil {
		return nil
	}
	return c.breaker
}

// openStoreChain opens cachedir and wires the stack. The breaker is
// always present when the store is — it costs one mutex acquisition per
// store op and stays closed forever on a healthy disk — while the
// injector only exists for an active -faults spec, keeping the
// fault-free file I/O path hook-free. A failed open degrades to a cold
// run with a warning, matching the cache's best-effort contract.
func openStoreChain(cachedir string, opts diskcache.Options, spec faults.Spec, stderr io.Writer) storeChain {
	in := faults.NewInjector(spec)
	if in != nil {
		opts.Hooks = diskcache.Hooks{WrapPut: in.WrapPut, WrapGet: in.WrapGet}
	}
	disk, err := diskcache.Open(cachedir, opts)
	if err != nil {
		fmt.Fprintf(stderr, "mergescale: disk cache disabled: %v\n", err)
		return storeChain{}
	}
	var es faults.ErrStore = disk
	if in != nil {
		es = faults.NewStore(es, in)
	}
	return storeChain{disk: disk, injector: in, breaker: faults.NewBreaker(es, faults.BreakerOptions{})}
}

// runServe boots the HTTP front end over a shared engine + disk cache and
// blocks until SIGINT/SIGTERM, then shuts down gracefully (in-flight
// streams abort via their request contexts). The bound address is printed
// to stderr once the listener is up, so -addr :0 callers (tests, CI) can
// discover the ephemeral port.
func runServe(args []string, opt experiments.Options, ef engineFlags, stderr io.Writer) int {
	fs := flag.NewFlagSet("mergescale serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", ":8080", "HTTP listen address (host:port; port 0 picks a free port)")
	maxstreams := fs.Int("maxstreams", 0, "max concurrently executing /run and /sweep streams; excess requests get 503 (0 = unlimited)")
	reqtimeout := fs.Duration("reqtimeout", 0, "per-request deadline for /run and /sweep; expiry gets 503 before the first byte, a chunked abort after (0 = none)")
	draintimeout := fs.Duration("draintimeout", serve.DefaultDrainTimeout, "graceful-shutdown bound: how long in-flight responses get to flush after SIGINT/SIGTERM")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "mergescale serve: unexpected arguments %v\n", fs.Args())
		return 2
	}
	if *maxstreams < 0 {
		fmt.Fprintf(stderr, "mergescale serve: -maxstreams must be >= 0\n")
		return 2
	}
	if *reqtimeout < 0 || *draintimeout <= 0 {
		fmt.Fprintf(stderr, "mergescale serve: -reqtimeout must be >= 0 and -draintimeout > 0\n")
		return 2
	}

	eng, chain := ef.engine(stderr)
	srv := &serve.Server{
		Engine:       eng,
		Store:        chain.disk,
		Breaker:      chain.breaker,
		Injector:     chain.injector,
		Opt:          opt,
		Log:          log.New(stderr, "mergescale: ", 0),
		MaxStreams:   *maxstreams,
		ReqTimeout:   *reqtimeout,
		DrainTimeout: *draintimeout,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	err := srv.ListenAndServe(ctx, *addr, func(a net.Addr) {
		fmt.Fprintf(stderr, "mergescale: serving on http://%s\n", a)
	})
	if err != nil {
		fmt.Fprintf(stderr, "mergescale: serve: %v\n", err)
		return 1
	}
	return 0
}

// printStats reports memory-cache and disk-cache traffic separately, so
// "the second run was fast" is inspectable: a warm disk run shows zero
// executed jobs and only disk hits. Failure counters and the fault line
// only print when non-zero / armed, so healthy output is unchanged.
func printStats(stderr io.Writer, eng *engine.Engine, chain storeChain) {
	st := eng.Stats()
	fmt.Fprintf(stderr, "engine: %d workers, %d executed (%d inline), memory cache %d hits / %d misses\n",
		eng.Workers(), st.Executed, st.Inline, st.Hits, st.Misses)
	if chain.disk == nil {
		return
	}
	ds := chain.disk.Stats()
	entries, bytes := chain.disk.Size()
	errs := ""
	if ds.WriteErrs > 0 {
		errs = fmt.Sprintf(", %d write errors", ds.WriteErrs)
	}
	fmt.Fprintf(stderr, "disk: %d hits / %d misses, %d writes (%d skipped)%s, %d evictions, %d dropped, %d entries / %d bytes in %s\n",
		st.StoreHits, st.StoreMisses, ds.Puts, ds.PutSkips, errs, ds.Evictions, ds.Dropped, entries, bytes, chain.disk.Dir())
	if chain.injector != nil {
		snap := chain.breaker.Snapshot()
		spec := chain.injector.Spec()
		fmt.Fprintf(stderr, "faults: %d injected (%s), breaker %s (%d faults, %d short-circuited, %d trips)\n",
			chain.injector.InjectedTotal(), spec.String(),
			snap.State, snap.Stats.Faults, snap.Stats.ShortCircuited, snap.Stats.Opened)
	}
}
