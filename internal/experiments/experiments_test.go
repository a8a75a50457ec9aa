package experiments

import (
	"bytes"
	"context"
	"errors"
	"math"
	"strconv"
	"strings"
	"sync"
	"testing"

	"mergescale/internal/engine"
	"mergescale/internal/report"
	"mergescale/internal/sim"
	"mergescale/internal/workload/contend"
	"mergescale/internal/workload/datagen"
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

// TestFig2dPaperBound gates the paper's Fig. 2(d) accuracy claim — the
// linear-growth model over- and under-estimates the simulated serial
// section by at most 14% and 18% — on the full-size run, which is the run
// the bound applies to. At -quick size the data sets are too small for
// the linear fit (hop's serial section grows super-linearly there), so the
// quick rendering of the same note is not held to it. Every kmeans, fuzzy
// and hop model/simulation ratio must lie in [0.82, 1.14].
func TestFig2dPaperBound(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size simulation")
	}
	doc, err := Fig2d(context.Background(), Options{Engine: engine.New(engine.Config{})})
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Tables) != 1 {
		t.Fatalf("fig2d has %d tables, want 1", len(doc.Tables))
	}
	seen := map[string]bool{}
	for _, row := range doc.Tables[0].Rows {
		name := row[0]
		seen[name] = true
		if len(row) < 2 {
			t.Errorf("%s: no ratios", name)
		}
		for i, cell := range row[1:] {
			r, err := strconv.ParseFloat(cell, 64)
			if err != nil {
				t.Fatalf("%s column %d: %v", name, i+1, err)
			}
			if r < 0.82 || r > 1.14 {
				t.Errorf("%s at p=%s: model/sim ratio %.3f outside the paper's [0.82, 1.14]",
					name, doc.Tables[0].Columns[i+1], r)
			}
		}
	}
	for _, w := range []string{"kmeans", "fuzzy", "hop"} {
		if !seen[w] {
			t.Errorf("fig2d has no %s row", w)
		}
	}
}

// TestFig2dQuickGap pins the -quick Fig. 2(d) model/simulation ratios as
// numbers. At this size hop's serial section grows super-linearly and the
// linear growth fit underpredicts it (0.431 at p=8, far outside the
// paper's full-size bound), so the ratios are recorded rather than
// bounded: drift in either direction — better or worse agreement — fails
// and must be re-recorded here on purpose.
func TestFig2dQuickGap(t *testing.T) {
	want := map[string][]float64{
		"kmeans": {1.000, 1.113, 0.982, 1.010},
		"fuzzy":  {1.000, 1.124, 0.982, 1.010},
		"hop":    {1.000, 0.996, 0.763, 0.431},
	}
	const tol = 0.002 // the cells carry three decimals
	doc, err := Fig2d(context.Background(), quickSerial())
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Tables) != 1 || len(doc.Tables[0].Rows) != len(want) {
		t.Fatalf("fig2d: want one table of %d rows, got %+v", len(want), doc.Tables)
	}
	tab := doc.Tables[0]
	for _, row := range tab.Rows {
		ratios, ok := want[row[0]]
		if !ok || len(row) != len(ratios)+1 {
			t.Fatalf("unexpected fig2d row %v", row)
		}
		for i, cell := range row[1:] {
			got, err := strconv.ParseFloat(cell, 64)
			if err != nil {
				t.Fatalf("%s column %d: %v", row[0], i+1, err)
			}
			if math.Abs(got-ratios[i]) > tol {
				t.Errorf("%s at %s: model/sim ratio %.3f, recorded %.3f", row[0], tab.Columns[i+1], got, ratios[i])
			}
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

// TestContendBuildsOneTracePerAlpha: the quick ext-contend and
// ext-contend-split sweeps simulate 3 alphas × 2 modes × 4 core counts,
// 24 programs over only 3 distinct zipf traces, and must generate each
// trace once. An earlier test may already have built some of them, so
// the first pass builds at most 3; a second pass builds none.
func TestContendBuildsOneTracePerAlpha(t *testing.T) {
	ctx := context.Background()
	for pass, limit := range []uint64{uint64(len(contendAlphas)), 0} {
		runs, built := sim.Runs(), contend.TracesBuilt()
		opt := quickSerial()
		for _, run := range []func(context.Context, Options) (*report.Document, error){ExtContend, ExtContendSplit} {
			if _, err := run(ctx, opt); err != nil {
				t.Fatal(err)
			}
		}
		if got, want := sim.Runs()-runs, uint64(2*len(contendAlphas)*len(simCoreCounts(opt))); got != want {
			t.Fatalf("pass %d: %d simulator runs, want %d", pass, got, want)
		}
		if got := contend.TracesBuilt() - built; got > limit {
			t.Errorf("pass %d: built %d zipf traces, want at most %d", pass, got, limit)
		}
	}
}

// TestGenDatasetConcurrentMissesShareOne: concurrent first calls for one
// spec generate it once and all return the same *Dataset.
func TestGenDatasetConcurrentMissesShareOne(t *testing.T) {
	spec := datagen.Spec{Label: "gen-once", N: 4096, D: 3, C: 4, Spread: 1, Seed: 9173}
	const callers = 8
	got := make([]*datagen.Dataset, callers)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ds, err := genDataset(spec)
			if err != nil {
				t.Error(err)
			}
			got[i] = ds
		}()
	}
	wg.Wait()
	for i, ds := range got {
		if ds == nil || ds != got[0] {
			t.Fatalf("caller %d got data set %p, caller 0 got %p", i, ds, got[0])
		}
	}
}
