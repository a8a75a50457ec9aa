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
	"time"

	"mergescale/internal/experiments"
	"mergescale/internal/report"
)

// runSweep implements the sweep subcommand: evaluate a parametric
// design-space grid read as JSON (the exact POST /sweep request format —
// the same experiments.SweepRequest struct decodes both, so the CLI and
// the endpoint can never drift) and stream the rendered table to stdout.
// The output is byte-identical to the POST /sweep body for the same grid
// and format. Points are plain model arithmetic evaluated in plan order,
// so there is no engine, worker pool or cache to configure; -nocache is
// still accepted, and has no effect, so scripts that pass it keep working.
//
// -timing prints time-to-first-row and total wall time to stderr (never
// stdout, so it cannot perturb the rendered bytes).
func runSweep(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mergescale sweep", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		gridPath = fs.String("grid", "-", "JSON grid file (apps × budgets × rs); - reads stdin")
		format   = fs.String("format", "text", "output format: text | markdown | json | csv")
		outPath  = fs.String("out", "", "write rendered output to this file instead of stdout")
		timing   = fs.Bool("timing", false, "print time-to-first-row and total wall time to stderr")
	)
	fs.Bool("nocache", false, "no effect: sweep points are never cached (accepted for older scripts)")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: mergescale sweep [-grid FILE|-] [-format F] [-out FILE] [-timing] [-nocache]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "mergescale sweep: unexpected arguments %v\n", fs.Args())
		return 2
	}
	// Decode and normalize before opening any output: a bad grid must not
	// truncate a previous report file, exactly as a bad POST /sweep body
	// is refused before any point is evaluated.
	var gridSrc io.Reader = os.Stdin
	if *gridPath != "-" {
		f, err := os.Open(*gridPath)
		if err != nil {
			fmt.Fprintf(stderr, "mergescale sweep: %v\n", err)
			return 1
		}
		defer f.Close()
		gridSrc = f
	}
	req, err := experiments.ParseSweepRequest(io.LimitReader(gridSrc, experiments.MaxSweepBody))
	if err != nil {
		fmt.Fprintf(stderr, "mergescale sweep: %v\n", err)
		return 2
	}
	plan, err := req.Normalize()
	if err != nil {
		fmt.Fprintf(stderr, "mergescale sweep: %v\n", err)
		return 2
	}

	out, code := openOutput(*format, *outPath, stdout, stderr)
	if out == nil {
		return code
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	start := time.Now()
	var firstRow time.Duration
	rows := 0
	code = render(out, func(r report.Renderer) error {
		_, err := plan.Run(ctx, func(el report.Element) error {
			if el.Kind == report.ElemRow {
				if rows == 0 {
					firstRow = time.Since(start)
				}
				rows++
			}
			return r.Element(el)
		})
		return err
	}, stderr)
	total := time.Since(start)
	code = out.close(code, stderr)
	if *timing && code == 0 {
		// One machine-readable line of key=value fields.
		fmt.Fprintf(stderr, "mergescale sweep: points=%d rows=%d first-row=%.6fs total=%.6fs\n",
			plan.Points(), rows, firstRow.Seconds(), total.Seconds())
	}
	return code
}
