package report

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files under testdata/")

// goldenDocs are the table-driven rendering fixtures: each document
// exercises one rendering surface (plain tables, charts, escaping, CSV
// quoting, empty sections).
func goldenDocs() []*Document {
	sweep := &Document{ID: "fig-golden", Title: "Symmetric sweep (golden fixture)"}
	st := sweep.AddTable("speedup vs r", "series", "r=1", "r=2", "r=4")
	st.AddRow("f=0.999 linear", "55.9", "71.2", "80.3")
	st.AddRow("f=0.990 log", "35.1", "44.0", "47.6")
	ch := sweep.AddChart("speedup", "r", "speedup", true)
	ch.Series = append(ch.Series,
		Series{Name: "linear", X: []float64{1, 2, 4}, Y: []float64{55.9, 71.2, 80.3}},
		Series{Name: "log", X: []float64{1, 2, 4}, Y: []float64{35.1, 44.0, 47.6}})
	sweep.AddNote("peak %.1f at r=%.0f", 80.3, 4.0)
	sweep.AddNote("paper peak 47.6 for f=0.99")

	escaping := &Document{ID: "escaping", Title: "Cells with | pipes, \"quotes\",\nnewlines, and , commas"}
	et := escaping.AddTable("tricky | title", "name", "value")
	et.AddRow("pipe|cell", "a,b")
	et.AddRow(`quoted "cell"`, "line1\nline2")
	et.AddRow("short row")
	escaping.AddNote("multi\nline note")

	mixed := &Document{ID: "mixed", Title: "AddRowf formatting"}
	mt := mixed.AddTable("floats", "kind", "value")
	mt.AddRow("integer float", FormatFloat(42.0))
	mt.AddRow("large", FormatFloat(1234.567))
	mt.AddRow("small", FormatFloat(0.00012345))
	mt.AddRow("string", "plain")

	empty := &Document{ID: "empty", Title: "No tables or charts"}
	empty.AddNote("only a note")

	emptyChart := &Document{ID: "empty-chart", Title: "Chart with no series"}
	emptyChart.AddChart("nothing to plot", "x", "y", false)

	return []*Document{sweep, escaping, mixed, empty, emptyChart}
}

// render dispatches one rendering surface.
func render(t *testing.T, d *Document, format string) []byte {
	t.Helper()
	var buf bytes.Buffer
	var err error
	switch format {
	case "text":
		err = d.Render(&buf)
	case "csv":
		err = d.CSV(&buf)
	case "markdown":
		err = d.Markdown(&buf)
	case "json":
		err = d.JSON(&buf)
	default:
		t.Fatalf("unknown format %q", format)
	}
	if err != nil {
		t.Fatalf("%s/%s: %v", d.ID, format, err)
	}
	return buf.Bytes()
}

// TestGoldenRendering locks every rendering surface against goldens under
// testdata/. Regenerate with: go test ./internal/report -run Golden -update
func TestGoldenRendering(t *testing.T) {
	for _, d := range goldenDocs() {
		for _, format := range []string{"text", "csv", "markdown", "json"} {
			d, format := d, format
			t.Run(d.ID+"/"+format, func(t *testing.T) {
				got := render(t, d, format)
				path := filepath.Join("testdata", d.ID+"."+format+".golden")
				if *updateGolden {
					if err := os.MkdirAll("testdata", 0o755); err != nil {
						t.Fatal(err)
					}
					if err := os.WriteFile(path, got, 0o644); err != nil {
						t.Fatal(err)
					}
					return
				}
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("missing golden (run with -update): %v", err)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("%s rendering drifted from %s\n--- got ---\n%s\n--- want ---\n%s", format, path, got, want)
				}
			})
		}
	}
}

// TestMarkdownStructure sanity-checks invariants that goldens alone would
// silently bake in if wrong.
func TestMarkdownStructure(t *testing.T) {
	for _, d := range goldenDocs() {
		md := string(render(t, d, "markdown"))
		if !strings.HasPrefix(md, "## "+d.ID+": ") {
			t.Errorf("%s: markdown missing document heading:\n%s", d.ID, md)
		}
		for _, tab := range d.Tables {
			for range tab.Rows {
				if strings.Count(md, "| --- |") == 0 && len(tab.Columns) == 1 {
					t.Errorf("%s: missing separator row", d.ID)
				}
			}
		}
		// Raw newlines inside cells would break pipe tables. Chart art
		// inside fenced code blocks also starts with "|", so skip fences.
		inFence := false
		for _, line := range strings.Split(md, "\n") {
			if strings.HasPrefix(line, "```") {
				inFence = !inFence
				continue
			}
			if !inFence && strings.HasPrefix(line, "|") && strings.Count(line, "|") < 2 {
				t.Errorf("%s: malformed table line %q", d.ID, line)
			}
		}
	}
}
