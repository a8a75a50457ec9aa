package experiments

import (
	"bytes"
	"context"
	"errors"
	"strconv"
	"strings"
	"testing"

	"mergescale/internal/engine"
)

var quick = Options{Quick: true}

// serialEngine is the serial, uncached reference engine: every job runs
// inline on the caller, in submission order, computed from scratch.
func serialEngine() *engine.Engine {
	return engine.New(engine.Config{Workers: 1, DisableCache: true})
}

// quickSerial is quick on the serial reference engine, for tests that
// call an experiment function directly.
func quickSerial() Options {
	opt := quick
	opt.Engine = serialEngine()
	return opt
}

func TestRegistryComplete(t *testing.T) {
	reg := Registry()
	if len(reg) < 16 {
		t.Fatalf("registry has %d experiments, want >= 16", len(reg))
	}
	wanted := []string{"table1", "table2", "table3", "table4",
		"fig2a", "fig2b", "fig2c", "fig2d", "fig3", "fig4", "fig5", "fig6", "fig7"}
	ids := map[string]bool{}
	for _, e := range reg {
		if ids[e.ID] {
			t.Errorf("duplicate experiment id %q", e.ID)
		}
		ids[e.ID] = true
		if e.Run == nil || e.Title == "" {
			t.Errorf("experiment %q incomplete", e.ID)
		}
	}
	for _, w := range wanted {
		if !ids[w] {
			t.Errorf("missing paper artifact %q", w)
		}
	}
}

func TestByID(t *testing.T) {
	e, err := ByID("fig3")
	if err != nil || e.ID != "fig3" {
		t.Errorf("ByID(fig3) = %+v, %v", e, err)
	}
	if _, err := ByID("fig99"); err == nil {
		t.Error("unknown id should fail")
	}
	if len(IDs()) != len(Registry()) {
		t.Error("IDs() length mismatch")
	}
}

// TestAllExperimentsRunQuick executes every registered experiment in quick
// mode and renders its document — an end-to-end integration test of the
// whole pipeline (datagen -> workloads -> sim/native -> trace -> model ->
// report).
func TestAllExperimentsRunQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	opt := quickSerial()
	for _, e := range Registry() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			doc, err := e.Run(context.Background(), opt)
			if err != nil {
				t.Fatalf("%s failed: %v", e.ID, err)
			}
			if doc.ID != e.ID {
				t.Errorf("document id %q != experiment id %q", doc.ID, e.ID)
			}
			var buf bytes.Buffer
			if err := doc.Render(&buf); err != nil {
				t.Fatalf("render: %v", err)
			}
			if buf.Len() == 0 {
				t.Error("empty rendering")
			}
			var csv bytes.Buffer
			if err := doc.CSV(&csv); err != nil {
				t.Fatalf("csv: %v", err)
			}
		})
	}
}

func TestFig4MatchesPaperPeaks(t *testing.T) {
	doc, err := Fig4(context.Background(), quickSerial())
	if err != nil {
		t.Fatal(err)
	}
	// The notes must contain the validated peaks: 104.5 at r=4 and 67.1 at r=8.
	all := strings.Join(doc.Notes, "\n")
	for _, want := range []string{"104.5 at r=4", "67.1 at r=8", "36.2 at r=32"} {
		if !strings.Contains(all, want) {
			t.Errorf("Fig4 notes missing %q:\n%s", want, all)
		}
	}
}

func TestFig7MatchesPaperPeaks(t *testing.T) {
	doc, err := Fig7(context.Background(), quickSerial())
	if err != nil {
		t.Fatal(err)
	}
	all := strings.Join(doc.Notes, "\n")
	if !strings.Contains(all, "46.6") && !strings.Contains(all, "46.7") {
		t.Errorf("Fig7(a) peak missing from notes:\n%s", all)
	}
}

func TestFig3PeaksBelow256(t *testing.T) {
	doc, err := Fig3(context.Background(), quickSerial())
	if err != nil {
		t.Fatal(err)
	}
	// kmeans and hop must peak strictly below 256 cores; fuzzy's serial
	// fraction is so small (f = 0.99998) that its peak lies past 256, but
	// its curve must still fall well short of the Amdahl prediction.
	found := 0
	for _, n := range doc.Notes {
		var name string
		var peak int
		var speedup, amdahl float64
		if _, err := scanNote(n, &name, &peak, &speedup, &amdahl); err == nil {
			found++
			if name != "fuzzy" && peak >= 256 {
				t.Errorf("%s: extended model should peak below 256 cores, note: %s", name, n)
			}
		}
	}
	if found != 3 {
		t.Errorf("expected 3 peak notes, parsed %d", found)
	}
}

// scanNote parses "<name>: extended model peaks at <p> cores (speedup <s>); ...".
func scanNote(n string, name *string, peak *int, speedup, amdahl *float64) (int, error) {
	idx := strings.Index(n, ": extended model peaks at ")
	if idx < 0 {
		return 0, errNoMatch
	}
	*name = n[:idx]
	rest := n[idx+len(": extended model peaks at "):]
	fields := strings.Fields(rest)
	p, err := strconv.Atoi(fields[0])
	if err != nil {
		return 0, err
	}
	*peak = p
	return 1, nil
}

var errNoMatch = errors.New("note does not match")
