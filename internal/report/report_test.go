package report

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func TestTableRenderAligned(t *testing.T) {
	tb := &Table{Title: "T", Columns: []string{"a", "long-header"}}
	tb.AddRow("x", "1")
	tb.AddRow("longer-cell", "2")
	var buf bytes.Buffer
	if err := tb.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, rule, two rows
		t.Fatalf("unexpected line count %d:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[1], "a ") {
		t.Errorf("header misaligned: %q", lines[1])
	}
	// The "1" in row x must start in the same column as "long-header".
	hIdx := strings.Index(lines[1], "long-header")
	rIdx := strings.Index(lines[3], "1")
	if hIdx != rIdx {
		t.Errorf("column misaligned: header at %d, cell at %d\n%s", hIdx, rIdx, out)
	}
}

// TestTableCSVEscaping replays a one-table document into the csv backend:
// cells with commas or quotes are quoted, embedded quotes doubled.
func TestTableCSVEscaping(t *testing.T) {
	doc := &Document{ID: "d", Title: "csv"}
	doc.AddTable("", "name", "note").AddRow("a,b", `say "hi"`)
	var buf bytes.Buffer
	if err := doc.Replay(&csvRenderer{w: &buf}); err != nil {
		t.Fatal(err)
	}
	want := "# \nname,note\n\"a,b\",\"say \"\"hi\"\"\"\n\n"
	if buf.String() != want {
		t.Errorf("CSV = %q, want %q", buf.String(), want)
	}
}

func TestFormatFloat(t *testing.T) {
	cases := []struct {
		in   float64
		want string
	}{
		{3, "3"},
		{1234.567, "1234.6"},
		{0.123456, "0.123"},
		{0.000123, "0.000123"},
		{math.NaN(), "NaN"},
		{math.Inf(1), "Inf"},
	}
	for _, c := range cases {
		if got := FormatFloat(c.in); got != c.want {
			t.Errorf("FormatFloat(%g) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestChartRender(t *testing.T) {
	ch := &Chart{Title: "test", XLabel: "x", YLabel: "y", LogX: true}
	ch.Series = append(ch.Series, Series{
		Name: "s1",
		X:    []float64{1, 2, 4, 8, 16},
		Y:    []float64{1, 2, 4, 8, 16},
	})
	var buf bytes.Buffer
	if err := ch.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "test") || !strings.Contains(out, "legend: *=s1") {
		t.Errorf("chart missing title/legend:\n%s", out)
	}
	if !strings.Contains(out, "*") {
		t.Error("chart has no plotted points")
	}
}

func TestChartEmpty(t *testing.T) {
	ch := &Chart{Title: "empty"}
	var buf bytes.Buffer
	if err := ch.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "empty chart") {
		t.Error("empty chart should say so")
	}
}

func TestChartConstantSeries(t *testing.T) {
	// Degenerate ranges (all same x or y) must not divide by zero.
	ch := &Chart{Title: "const"}
	ch.Series = append(ch.Series, Series{Name: "c", X: []float64{1, 1}, Y: []float64{5, 5}})
	var buf bytes.Buffer
	if err := ch.Render(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestDocumentRenderAndCSV(t *testing.T) {
	doc := &Document{ID: "d1", Title: "Doc"}
	tb := doc.AddTable("tab", "a")
	tb.AddRow("1")
	ch := doc.AddChart("chart", "x", "y", false)
	ch.Series = append(ch.Series, Series{Name: "s", X: []float64{0, 1}, Y: []float64{0, 1}})
	doc.AddNote("hello %d", 42)
	var buf bytes.Buffer
	if err := doc.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"== d1: Doc ==", "tab", "chart", "note: hello 42"} {
		if !strings.Contains(out, want) {
			t.Errorf("document missing %q:\n%s", want, out)
		}
	}
	var csv bytes.Buffer
	if err := doc.CSV(&csv); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(csv.String(), "# tab") {
		t.Error("CSV missing table header comment")
	}
}
