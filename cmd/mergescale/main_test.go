package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mergescale/internal/engine"
	"mergescale/internal/experiments"
	"mergescale/internal/report"
	"mergescale/internal/sim"
)

// TestHelp exercises the usage path (-h equivalent: bad args).
func TestHelp(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-h"}, &out, &errOut); code != 0 {
		t.Fatalf("-h exit code = %d, want 0", code)
	}
	if !strings.Contains(errOut.String(), "usage: mergescale") {
		t.Fatalf("usage text missing:\n%s", errOut.String())
	}
}

func TestList(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-list"}, &out, &errOut); code != 0 {
		t.Fatalf("-list exit code = %d, stderr: %s", code, errOut.String())
	}
	for _, id := range []string{"table1", "fig4", "abl-growth"} {
		if !strings.Contains(out.String(), id) {
			t.Errorf("-list missing %q", id)
		}
	}
}

func TestUnknownExperiment(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"run", "fig99"}, &out, &errOut); code != 1 {
		t.Fatalf("unknown id exit code = %d, want 1", code)
	}
	if !strings.Contains(errOut.String(), "unknown id") {
		t.Fatalf("expected unknown-id error, got: %s", errOut.String())
	}
}

// TestRunQuickWorkload runs one cheap analytical experiment end-to-end.
func TestRunQuickWorkload(t *testing.T) {
	var out, errOut bytes.Buffer
	code := run([]string{"-quick", "-stats", "run", "fig4"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit code = %d, stderr: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "== fig4: Scalability on symmetric CMPs ==") {
		t.Fatalf("fig4 header missing from output:\n%.400s", out.String())
	}
	if !strings.Contains(errOut.String(), "engine:") {
		t.Fatalf("-stats line missing from stderr: %s", errOut.String())
	}
}

// TestRunDeterministicAcrossWorkers compares CLI output of a serial,
// uncached run (-workers 1 -nocache) with -workers 8, per format: the
// stream releases elements in registry order whatever order jobs resolve.
func TestRunDeterministicAcrossWorkers(t *testing.T) {
	for _, format := range []string{"text", "markdown", "json", "csv"} {
		var serial, parallel, errOut bytes.Buffer
		if code := run([]string{"-quick", "-format", format, "-workers", "1", "-nocache", "run", "fig4"}, &serial, &errOut); code != 0 {
			t.Fatalf("%s serial run failed: %s", format, errOut.String())
		}
		if code := run([]string{"-quick", "-format", format, "-workers", "8", "run", "fig4"}, &parallel, &errOut); code != 0 {
			t.Fatalf("%s parallel run failed: %s", format, errOut.String())
		}
		if !bytes.Equal(serial.Bytes(), parallel.Bytes()) {
			t.Fatalf("%s: -workers 8 output differs from -workers 1", format)
		}
	}
}

// TestWarmDiskCacheRunAll is the headline acceptance check for the
// persistent cache: a second `run all` against a warm -cachedir must
// perform zero simulator machine runs, execute zero job functions, and
// render byte-identical output.
func TestWarmDiskCacheRunAll(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	dir := t.TempDir()
	var cold, warm, errOut bytes.Buffer
	if code := run([]string{"-quick", "-cachedir", dir, "run", "all"}, &cold, &errOut); code != 0 {
		t.Fatalf("cold run failed: %s", errOut.String())
	}

	before := sim.Runs()
	errOut.Reset()
	if code := run([]string{"-quick", "-cachedir", dir, "-stats", "run", "all"}, &warm, &errOut); code != 0 {
		t.Fatalf("warm run failed: %s", errOut.String())
	}
	if ran := sim.Runs() - before; ran != 0 {
		t.Errorf("warm run performed %d simulator machine runs, want 0", ran)
	}
	if !bytes.Equal(cold.Bytes(), warm.Bytes()) {
		t.Error("warm output differs from cold output")
	}
	stats := errOut.String()
	if !strings.Contains(stats, "0 executed") {
		t.Errorf("warm -stats should report 0 executed jobs:\n%s", stats)
	}
	if !strings.Contains(stats, "disk:") || strings.Contains(stats, "disk: 0 hits") {
		t.Errorf("warm -stats should report disk hits:\n%s", stats)
	}
}

// TestNocacheDisablesDisk: -nocache must keep the cache directory cold.
func TestNocacheDisablesDisk(t *testing.T) {
	dir := t.TempDir()
	var out, errOut bytes.Buffer
	if code := run([]string{"-quick", "-cachedir", dir, "-nocache", "-stats", "run", "table3"}, &out, &errOut); code != 0 {
		t.Fatalf("run failed: %s", errOut.String())
	}
	if strings.Contains(errOut.String(), "disk:") {
		t.Errorf("-nocache run still reported disk stats:\n%s", errOut.String())
	}
}

func TestRunCSV(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-quick", "-format", "csv", "run", "table3"}, &out, &errOut); code != 0 {
		t.Fatalf("csv run failed: %s", errOut.String())
	}
	if !strings.Contains(out.String(), "parallelism,constant,reduction") {
		t.Fatalf("csv header missing:\n%.200s", out.String())
	}
	// -csv is not a flag: -format csv is the one way to ask for csv.
	out.Reset()
	errOut.Reset()
	if code := run([]string{"-quick", "-csv", "run", "table3"}, &out, &errOut); code != 2 {
		t.Fatalf("-csv exit code = %d, want 2", code)
	}
	if !strings.Contains(errOut.String(), "flag provided but not defined") || out.Len() != 0 {
		t.Fatalf("-csv: stdout %d bytes, stderr %q; want a usage error only", out.Len(), errOut.String())
	}
}

// TestFormatMarkdown: the markdown backend emits the document heading and
// a pipe table.
func TestFormatMarkdown(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-quick", "-format", "markdown", "run", "table3"}, &out, &errOut); code != 0 {
		t.Fatalf("markdown run failed: %s", errOut.String())
	}
	if !strings.Contains(out.String(), "## table3: ") {
		t.Errorf("markdown heading missing:\n%.200s", out.String())
	}
	if !strings.Contains(out.String(), "| --- |") {
		t.Error("markdown table separator missing")
	}
}

// TestFormatJSON: the json backend emits one parseable array with the
// requested artifact.
func TestFormatJSON(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-quick", "-format", "json", "run", "table3"}, &out, &errOut); code != 0 {
		t.Fatalf("json run failed: %s", errOut.String())
	}
	var docs []struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(out.Bytes(), &docs); err != nil {
		t.Fatalf("json output does not parse: %v\n%.200s", err, out.String())
	}
	if len(docs) != 1 || docs[0].ID != "table3" {
		t.Fatalf("json docs = %+v, want [table3]", docs)
	}
}

// TestNegativeWorkersRejected: a negative -workers would silently select
// GOMAXPROCS; it must be a usage error instead.
func TestNegativeWorkersRejected(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-workers", "-2", "run", "table3"}, &out, &errOut); code != 2 {
		t.Fatalf("-workers -2 exit code = %d, want 2", code)
	}
	if !strings.Contains(errOut.String(), "-workers must be >= 0") {
		t.Fatalf("expected -workers validation error, got: %s", errOut.String())
	}
}

// TestExpiryAndRateLimitFlagsAreUsageErrors: disk-cache entries never
// expire and serve has no per-client rate limiter, so the global
// -cachettl and serve's -ratelimit and -rateburst are gone, and passing
// one is a usage error that renders nothing.
func TestExpiryAndRateLimitFlagsAreUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-cachettl", "1h", "-quick", "run", "fig4"},
		{"serve", "-ratelimit", "1"},
		{"serve", "-rateburst", "1"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
		if out.Len() != 0 {
			t.Errorf("%v: rendered output despite the usage error", args)
		}
		if !strings.Contains(errOut.String(), "flag provided but not defined") {
			t.Errorf("%v: stderr %q does not name the unknown flag", args, errOut.String())
		}
	}
}

// TestServeUsageErrors: the serve subcommand validates its own arguments
// (and inherits the global flag validation) without booting a listener.
func TestServeUsageErrors(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"serve", "bogus"}, &out, &errOut); code != 2 {
		t.Fatalf("serve bogus exit code = %d, want 2", code)
	}
	if !strings.Contains(errOut.String(), "unexpected arguments") {
		t.Fatalf("expected unexpected-arguments error, got: %s", errOut.String())
	}
	errOut.Reset()
	if code := run([]string{"-workers", "-1", "serve"}, &out, &errOut); code != 2 {
		t.Fatalf("-workers -1 serve exit code = %d, want 2", code)
	}
	errOut.Reset()
	if code := run([]string{"serve", "-addr", "not-an-address"}, &out, &errOut); code != 1 {
		t.Fatalf("serve -addr not-an-address exit code = %d, want 1", code)
	}
	if !strings.Contains(errOut.String(), "serve:") {
		t.Fatalf("expected listen error, got: %s", errOut.String())
	}
	// Rendering flags are per-request over HTTP; combining them with serve
	// must be rejected, not silently dropped.
	for _, args := range [][]string{
		{"-format", "json", "serve"},
		{"-out", "x", "serve"},
		{"-format", "csv", "serve"},
		{"-stats", "serve"},
	} {
		errOut.Reset()
		if code := run(args, &out, &errOut); code != 2 {
			t.Fatalf("%v exit code = %d, want 2", args, code)
		}
		if !strings.Contains(errOut.String(), "does not apply to serve") {
			t.Fatalf("%v: expected serve-conflict error, got: %s", args, errOut.String())
		}
	}
}

// TestServeLimitFlagValidation: a negative admission-control flag is a
// usage error, not a silently-disabled limit.
func TestServeLimitFlagValidation(t *testing.T) {
	for _, args := range [][]string{
		{"serve", "-maxstreams", "-1"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code != 2 {
			t.Fatalf("%v exit code = %d, want 2 (stderr: %s)", args, code, errOut.String())
		}
		if !strings.Contains(errOut.String(), "must be >= 0") {
			t.Fatalf("%v: expected validation error, got: %s", args, errOut.String())
		}
	}
}

// TestUnknownSubcommandUsage: a missing or unknown subcommand, load among
// them, prints the generic usage and exits 2 without rendering anything.
func TestUnknownSubcommandUsage(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"bogus"},
		{"load"},
		{"load", "-url", "http://127.0.0.1:1", "-requests", "1"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
		if !strings.Contains(errOut.String(), "usage: mergescale") {
			t.Errorf("%v: usage text missing from stderr: %s", args, errOut.String())
		}
		if strings.Contains(errOut.String(), "mergescale load") {
			t.Errorf("%v: usage still lists the load subcommand", args)
		}
		if out.Len() != 0 {
			t.Errorf("%v: wrote %d bytes to stdout", args, out.Len())
		}
	}
}

// TestUnknownFormat: a bad -format is a usage error before any work runs.
func TestUnknownFormat(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-format", "yaml", "run", "table3"}, &out, &errOut); code != 2 {
		t.Fatalf("-format=yaml exit code = %d, want 2", code)
	}
	if !strings.Contains(errOut.String(), "unknown format") {
		t.Fatalf("expected unknown-format error, got: %s", errOut.String())
	}
}

// TestOutFile: -out writes the rendered report to the file and nothing to
// stdout.
func TestOutFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "report.md")
	var out, errOut bytes.Buffer
	if code := run([]string{"-quick", "-format", "markdown", "-out", path, "run", "table3"}, &out, &errOut); code != 0 {
		t.Fatalf("-out run failed: %s", errOut.String())
	}
	if out.Len() != 0 {
		t.Errorf("-out run still wrote %d bytes to stdout", out.Len())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var direct bytes.Buffer
	if code := run([]string{"-quick", "-format", "markdown", "run", "table3"}, &direct, &errOut); code != 0 {
		t.Fatalf("direct run failed: %s", errOut.String())
	}
	if !bytes.Equal(data, direct.Bytes()) {
		t.Error("-out file differs from stdout rendering")
	}
}

// TestWarmDiskCacheStreamedMarkdown: the warm-replay guarantee holds for
// the streamed markdown rendering — zero simulator machine runs and
// byte-identical output on the second run.
func TestWarmDiskCacheStreamedMarkdown(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	dir := t.TempDir()
	args := []string{"-quick", "-cachedir", dir, "-format", "markdown", "run", "fig2a"}
	var cold, warm, errOut bytes.Buffer
	if code := run(args, &cold, &errOut); code != 0 {
		t.Fatalf("cold run failed: %s", errOut.String())
	}
	before := sim.Runs()
	if code := run(args, &warm, &errOut); code != 0 {
		t.Fatalf("warm run failed: %s", errOut.String())
	}
	if ran := sim.Runs() - before; ran != 0 {
		t.Errorf("warm streamed run performed %d simulator machine runs, want 0", ran)
	}
	if !bytes.Equal(cold.Bytes(), warm.Bytes()) {
		t.Error("warm streamed markdown differs from cold")
	}
}

// TestBadFormatPreservesOutFile: a -format typo must not truncate an
// existing -out file.
func TestBadFormatPreservesOutFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "report.md")
	if err := os.WriteFile(path, []byte("precious"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errOut bytes.Buffer
	if code := run([]string{"-format", "mardown", "-out", path, "run", "table3"}, &out, &errOut); code != 2 {
		t.Fatalf("bad format exit code = %d, want 2", code)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "precious" {
		t.Errorf("-out file was clobbered by a rejected run: %q", data)
	}
}

// countingWriter counts the Write calls that reach it.
type countingWriter struct {
	bytes.Buffer
	writes int
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes++
	return w.Buffer.Write(p)
}

// TestRunWritesOncePerDocument: `-quick run all` reaches stdout in at
// most one write per document, with the same bytes a renderer writing
// straight into a buffer produces.
func TestRunWritesOncePerDocument(t *testing.T) {
	var out countingWriter
	var errOut bytes.Buffer
	if code := run([]string{"-quick", "run", "all"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	docs := len(experiments.Registry())
	if out.writes > docs {
		t.Errorf("%d documents took %d writes, want at most one each", docs, out.writes)
	}
	var direct bytes.Buffer
	r, err := report.NewRenderer("text", &direct)
	if err != nil {
		t.Fatal(err)
	}
	opt := experiments.Options{Quick: true, Engine: engine.New(engine.Config{Workers: 1, DisableCache: true})}
	err = r.Begin()
	if err == nil {
		err = experiments.StreamElements(context.Background(), opt.Engine, experiments.Registry(), opt, r.Element)
	}
	if err == nil {
		err = r.End()
	}
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), direct.Bytes()) {
		t.Error("buffered stdout differs from the unbuffered render")
	}
}

// failWriter accepts its first ok writes, then fails every one after, as
// a full disk or closed pipe does.
type failWriter struct{ ok int }

func (w *failWriter) Write(p []byte) (int, error) {
	if w.ok == 0 {
		return 0, errors.New("disk full")
	}
	w.ok--
	return len(p), nil
}

// TestFailedFlushExitsOne: when stdout rejects the buffered bytes, run,
// simulate and sweep each report the error and exit 1 — whether the
// flush at a document's end fails, or only the final flush on close
// (json's trailing bytes, written after the last document).
func TestFailedFlushExitsOne(t *testing.T) {
	grid := writeGrid(t, testSweepGrid)
	for name, tc := range map[string]struct {
		args []string
		ok   int
	}{
		"run":            {[]string{"-quick", "run", "table3"}, 0},
		"run json close": {[]string{"-quick", "-format", "json", "run", "table3"}, 1},
		"simulate":       {simArgs, 0},
		"simulate close": {withGlobals("-format", "json"), 1},
		"sweep":          {[]string{"sweep", "-grid", grid}, 0},
		"sweep close":    {[]string{"sweep", "-grid", grid, "-format", "json"}, 1},
	} {
		var errOut bytes.Buffer
		if code := run(tc.args, &failWriter{ok: tc.ok}, &errOut); code != 1 {
			t.Errorf("%s: exit %d, want 1 (stderr: %s)", name, code, errOut.String())
		}
		if !strings.Contains(errOut.String(), "disk full") {
			t.Errorf("%s: stderr lacks the write error: %s", name, errOut.String())
		}
	}
}
