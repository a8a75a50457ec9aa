package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mergescale/internal/sim"
)

func TestHelp(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-h"}, &out, &errOut); code != 0 {
		t.Fatalf("-h exit code = %d, want 0", code)
	}
	if !strings.Contains(errOut.String(), "-workload") {
		t.Fatalf("flag help missing:\n%s", errOut.String())
	}
}

func TestUnknownWorkload(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-workload", "nope"}, &out, &errOut); code != 2 {
		t.Fatalf("unknown workload exit code = %d, want 2", code)
	}
}

// TestQuickWorkload simulates a heavily scaled-down kmeans run and checks
// the report sections appear.
func TestQuickWorkload(t *testing.T) {
	var out, errOut bytes.Buffer
	code := run([]string{"-workload", "kmeans", "-cores", "4", "-scale", "64", "-iters", "1"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit code = %d, stderr: %s", code, errOut.String())
	}
	for _, want := range []string{"workload  kmeans", "machine   4 cores", "cycles", "memory", "coherence", "sync"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}

// TestWarmDiskCache runs the same configuration twice against one cache
// directory: the second run must replay from disk — zero machine runs —
// and print byte-identical output.
func TestWarmDiskCache(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-workload", "kmeans", "-cores", "4", "-scale", "64", "-iters", "1", "-cachedir", dir, "-stats"}
	var cold, warm, coldErr, warmErr bytes.Buffer
	if code := run(args, &cold, &coldErr); code != 0 {
		t.Fatalf("cold run failed: %s", coldErr.String())
	}
	before := sim.Runs()
	if code := run(args, &warm, &warmErr); code != 0 {
		t.Fatalf("warm run failed: %s", warmErr.String())
	}
	if ran := sim.Runs() - before; ran != 0 {
		t.Errorf("warm run performed %d machine runs, want 0", ran)
	}
	if !bytes.Equal(cold.Bytes(), warm.Bytes()) {
		t.Errorf("warm output differs from cold:\n%s\nvs\n%s", warm.String(), cold.String())
	}
	if !strings.Contains(warmErr.String(), "disk: 1 hits") {
		t.Errorf("warm -stats should report one disk hit:\n%s", warmErr.String())
	}
}

func TestInvalidCores(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-cores", "0"}, &out, &errOut); code != 2 {
		t.Fatalf("-cores 0 exit code = %d, want 2", code)
	}
	if !strings.Contains(errOut.String(), "at least one core") {
		t.Fatalf("expected core-count error, got: %s", errOut.String())
	}
	if code := run([]string{"-cores", "512"}, &out, &errOut); code != 2 {
		t.Fatalf("-cores 512 exit code = %d, want 2", code)
	}
}

// TestFormatMarkdownAndJSON: the non-text backends render the run as a
// document through the shared report pipeline.
func TestFormatMarkdownAndJSON(t *testing.T) {
	base := []string{"-workload", "kmeans", "-cores", "4", "-scale", "64", "-iters", "1"}
	var md, errOut bytes.Buffer
	if code := run(append([]string{"-format", "markdown"}, base...), &md, &errOut); code != 0 {
		t.Fatalf("markdown run failed: %s", errOut.String())
	}
	for _, want := range []string{"## simulate: kmeans on 4 simulated cores", "**phase cycles**", "| --- |", "- machine: 4 cores"} {
		if !strings.Contains(md.String(), want) {
			t.Errorf("markdown output missing %q:\n%s", want, md.String())
		}
	}

	var js bytes.Buffer
	if code := run(append([]string{"-format", "json"}, base...), &js, &errOut); code != 0 {
		t.Fatalf("json run failed: %s", errOut.String())
	}
	var docs []struct {
		ID     string `json:"id"`
		Tables []struct {
			Title string `json:"title"`
		} `json:"tables"`
	}
	if err := json.Unmarshal(js.Bytes(), &docs); err != nil {
		t.Fatalf("json output does not parse: %v", err)
	}
	if len(docs) != 1 || docs[0].ID != "simulate" || len(docs[0].Tables) != 2 {
		t.Fatalf("json docs = %+v, want one simulate doc with 2 tables", docs)
	}
}

// TestFormatUnknown: a bad -format fails before any simulation runs.
func TestFormatUnknown(t *testing.T) {
	var out, errOut bytes.Buffer
	before := sim.Runs()
	if code := run([]string{"-format", "yaml", "-workload", "kmeans", "-cores", "1", "-scale", "64", "-iters", "1"}, &out, &errOut); code != 2 {
		t.Fatalf("-format=yaml exit code = %d, want 2", code)
	}
	if ran := sim.Runs() - before; ran != 0 {
		t.Errorf("bad -format still performed %d machine runs", ran)
	}
}

// TestOutFile: -out writes the report to the file, leaving stdout empty.
func TestOutFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.csv")
	var out, errOut bytes.Buffer
	args := []string{"-workload", "kmeans", "-cores", "4", "-scale", "64", "-iters", "1", "-format", "csv", "-out", path}
	if code := run(args, &out, &errOut); code != 0 {
		t.Fatalf("-out run failed: %s", errOut.String())
	}
	if out.Len() != 0 {
		t.Errorf("-out run still wrote %d bytes to stdout", out.Len())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "# phase cycles") {
		t.Errorf("-out file missing csv table:\n%s", data)
	}
}

// TestBadFormatPreservesOutFile: a -format typo must not truncate an
// existing -out file.
func TestBadFormatPreservesOutFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.csv")
	if err := os.WriteFile(path, []byte("precious"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errOut bytes.Buffer
	args := []string{"-workload", "kmeans", "-cores", "4", "-scale", "64", "-iters", "1", "-format", "yml", "-out", path}
	if code := run(args, &out, &errOut); code != 2 {
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

// TestNegativeCacheTTLRejected: a negative -cachettl would expire every
// disk entry on sight; it must be a usage error before any simulation.
func TestNegativeCacheTTLRejected(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-cachettl", "-5m"}, &out, &errOut); code != 2 {
		t.Fatalf("-cachettl -5m exit code = %d, want 2", code)
	}
	if !strings.Contains(errOut.String(), "-cachettl must be >= 0") {
		t.Fatalf("expected -cachettl validation error, got: %s", errOut.String())
	}
}
