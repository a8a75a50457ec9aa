package report

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// Table is a titled grid of cells.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
}

// AddRow appends a row of stringified cells.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// FormatFloat renders a float compactly: integers without decimals, small
// magnitudes with enough precision to be meaningful. It formats through
// strconv directly (fmt's %.Nf/%.Ng delegate to the same routines), so a
// table cell costs one string allocation instead of fmt's boxing.
func FormatFloat(v float64) string {
	switch {
	case math.IsNaN(v):
		return "NaN"
	case math.IsInf(v, 0):
		return "Inf"
	case v == math.Trunc(v) && math.Abs(v) < 1e9:
		return strconv.FormatFloat(v, 'f', 0, 64)
	case math.Abs(v) >= 100:
		return strconv.FormatFloat(v, 'f', 1, 64)
	case math.Abs(v) >= 0.01:
		return strconv.FormatFloat(v, 'f', 3, 64)
	default:
		return strconv.FormatFloat(v, 'g', 3, 64)
	}
}

// Render writes the table with aligned columns. One scratch line buffer is
// reused for every row (the rendering path runs per experiment per
// request, so per-cell fmt/join allocations used to dominate render cost).
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	buf := make([]byte, 0, 128)
	if t.Title != "" {
		buf = append(append(buf, t.Title...), '\n')
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	// writeLine renders cells padded to their column widths, two spaces
	// between columns, trailing spaces trimmed — byte-identical to the
	// former Sprintf("%-*s")+Join+TrimRight form (golden tests pin it).
	writeLine := func(cells []string) error {
		buf = buf[:0]
		for i := range widths {
			cell := ""
			if i < len(cells) {
				cell = cells[i]
			}
			buf = append(buf, cell...)
			for pad := len(cell); pad < widths[i]; pad++ {
				buf = append(buf, ' ')
			}
			if i < len(widths)-1 {
				buf = append(buf, ' ', ' ')
			}
		}
		for len(buf) > 0 && buf[len(buf)-1] == ' ' {
			buf = buf[:len(buf)-1]
		}
		buf = append(buf, '\n')
		_, err := w.Write(buf)
		return err
	}
	if err := writeLine(t.Columns); err != nil {
		return err
	}
	total := len(widths)*2 - 2
	for _, wd := range widths {
		total += wd
	}
	buf = buf[:0]
	for i := 0; i < total; i++ {
		buf = append(buf, '-')
	}
	buf = append(buf, '\n')
	if _, err := w.Write(buf); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := writeLine(row); err != nil {
			return err
		}
	}
	return nil
}

// Series is one named line of a chart.
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// Chart is a titled collection of series rendered as an ASCII plot.
type Chart struct {
	Title  string
	XLabel string
	YLabel string
	LogX   bool
	Series []Series
}

// markers cycles through per-series plot glyphs.
var markers = []byte{'*', 'o', '+', 'x', '#', '@', '%', '&'}

// Render draws the chart onto a fixed-size character grid. The rendering
// is intentionally simple: each point maps to one cell; later series
// overwrite earlier ones on collisions. The grid and every output line
// share one scratch buffer; fmt is avoided on the hot path (all float
// formatting goes through strconv, which %.4g delegates to anyway).
func (c *Chart) Render(w io.Writer) error {
	const width, height = 64, 16
	if len(c.Series) == 0 {
		_, err := fmt.Fprintf(w, "%s\n(empty chart)\n", c.Title)
		return err
	}
	minX, maxX := math.Inf(1), math.Inf(-1)
	minY, maxY := math.Inf(1), math.Inf(-1)
	tx := func(v float64) float64 {
		if c.LogX && v > 0 {
			return math.Log2(v)
		}
		return v
	}
	for _, s := range c.Series {
		for i := range s.X {
			x, y := tx(s.X[i]), s.Y[i]
			minX, maxX = math.Min(minX, x), math.Max(maxX, x)
			minY, maxY = math.Min(minY, y), math.Max(maxY, y)
		}
	}
	if minX == maxX {
		maxX = minX + 1
	}
	if minY == maxY {
		maxY = minY + 1
	}
	// One backing array for the whole grid instead of a slice per row.
	cells := make([]byte, height*width)
	for i := range cells {
		cells[i] = ' '
	}
	for si, s := range c.Series {
		m := markers[si%len(markers)]
		for i := range s.X {
			px := int((tx(s.X[i]) - minX) / (maxX - minX) * float64(width-1))
			py := int((s.Y[i] - minY) / (maxY - minY) * float64(height-1))
			row := height - 1 - py
			if row >= 0 && row < height && px >= 0 && px < width {
				cells[row*width+px] = m
			}
		}
	}
	buf := make([]byte, 0, width+4)
	writeBuf := func() error {
		_, err := w.Write(buf)
		return err
	}
	buf = append(append(buf, c.Title...), '\n')
	if err := writeBuf(); err != nil {
		return err
	}
	buf = append(append(buf[:0], c.YLabel...), " (max "...)
	buf = strconv.AppendFloat(buf, maxY, 'g', 4, 64)
	buf = append(buf, ")\n"...)
	if err := writeBuf(); err != nil {
		return err
	}
	for row := 0; row < height; row++ {
		buf = append(append(buf[:0], '|', ' '), cells[row*width:(row+1)*width]...)
		buf = append(buf, '\n')
		if err := writeBuf(); err != nil {
			return err
		}
	}
	buf = append(buf[:0], '+')
	for i := 0; i < width+1; i++ {
		buf = append(buf, '-')
	}
	buf = append(buf, '\n')
	if err := writeBuf(); err != nil {
		return err
	}
	buf = append(append(buf[:0], ' ', ' '), c.XLabel...)
	buf = append(buf, ": "...)
	buf = strconv.AppendFloat(buf, minXOrig(c), 'g', 4, 64)
	buf = append(buf, " .. "...)
	buf = strconv.AppendFloat(buf, maxXOrig(c), 'g', 4, 64)
	buf = append(buf, " (min y "...)
	buf = strconv.AppendFloat(buf, minY, 'g', 4, 64)
	buf = append(buf, ")\n"...)
	if err := writeBuf(); err != nil {
		return err
	}
	buf = append(buf[:0], "  legend: "...)
	for si, s := range c.Series {
		if si > 0 {
			buf = append(buf, ' ', ' ')
		}
		buf = append(buf, markers[si%len(markers)], '=')
		buf = append(buf, s.Name...)
	}
	buf = append(buf, '\n')
	return writeBuf()
}

func minXOrig(c *Chart) float64 {
	m := math.Inf(1)
	for _, s := range c.Series {
		for _, x := range s.X {
			m = math.Min(m, x)
		}
	}
	return m
}

func maxXOrig(c *Chart) float64 {
	m := math.Inf(-1)
	for _, s := range c.Series {
		for _, x := range s.X {
			m = math.Max(m, x)
		}
	}
	return m
}

// Document is the output of one experiment: any number of tables and
// charts plus free-form notes (paper-vs-measured comparisons).
type Document struct {
	ID     string
	Title  string
	Tables []*Table
	Charts []*Chart
	Notes  []string
}

// AddTable appends and returns a new table. Rows gets a little capacity up
// front so typical tables (a handful of rows) append without regrowing.
func (d *Document) AddTable(title string, columns ...string) *Table {
	t := &Table{Title: title, Columns: columns, Rows: make([][]string, 0, 8)}
	d.Tables = append(d.Tables, t)
	return t
}

// AddChart appends and returns a new chart.
func (d *Document) AddChart(title, xlabel, ylabel string, logX bool) *Chart {
	c := &Chart{Title: title, XLabel: xlabel, YLabel: ylabel, LogX: logX}
	d.Charts = append(d.Charts, c)
	return c
}

// AddNote appends a formatted note line. Pre-rendered notes (no args) are
// stored as-is — callers on hot paths concatenate with strconv and pass a
// single string, skipping fmt entirely.
func (d *Document) AddNote(format string, args ...interface{}) {
	if len(args) == 0 && !strings.ContainsRune(format, '%') {
		// No verbs to expand (a %% escape still needs fmt).
		d.Notes = append(d.Notes, format)
		return
	}
	d.Notes = append(d.Notes, fmt.Sprintf(format, args...))
}

// Render writes the whole document in the fixed-width terminal form. It is
// the standalone replay into the text backend (no trailing document
// separator; the streaming form adds one between documents).
func (d *Document) Render(w io.Writer) error {
	return d.Replay(&textRenderer{w: w})
}

// textRenderer is the fixed-width terminal backend: a == heading, aligned
// tables, ASCII charts, and note: lines. sep adds the blank line that
// separates (and trails) documents in a stream. Tables and charts are
// reassembled in tbl/chart and rendered at their End element: column
// alignment needs every row's width and the ASCII plot needs the global
// min/max, so this format cannot flush mid-table (markdown and csv can).
type textRenderer struct {
	w     io.Writer
	sep   bool
	tbl   *Table
	chart *Chart
}

func (r *textRenderer) Begin() error { return nil }
func (r *textRenderer) End() error   { return nil }

func (r *textRenderer) Element(el Element) error {
	switch el.Kind {
	case ElemBeginTable:
		t := el.Table
		r.tbl = &t
		return nil
	case ElemRow:
		if r.tbl == nil {
			return fmt.Errorf("report: ElemRow outside a table")
		}
		r.tbl.Rows = append(r.tbl.Rows, el.Row)
		return nil
	case ElemEndTable:
		if r.tbl == nil {
			return fmt.Errorf("report: ElemEndTable outside a table")
		}
		t := r.tbl
		r.tbl = nil
		return r.block(t.Render)
	case ElemBeginChart:
		c := el.Chart
		r.chart = &c
		return nil
	case ElemSeries:
		if r.chart == nil {
			return fmt.Errorf("report: ElemSeries outside a chart")
		}
		r.chart.Series = append(r.chart.Series, el.Series)
		return nil
	case ElemEndChart:
		if r.chart == nil {
			return fmt.Errorf("report: ElemEndChart outside a chart")
		}
		c := r.chart
		r.chart = nil
		return r.block(c.Render)
	case ElemBeginDoc:
		// Direct writes: Fprintf would box both strings per document.
		for _, s := range []string{"== ", el.ID, ": ", el.Title, " ==\n\n"} {
			if _, err := io.WriteString(r.w, s); err != nil {
				return err
			}
		}
		return nil
	case ElemNote:
		for _, s := range []string{"note: ", el.Note, "\n"} {
			if _, err := io.WriteString(r.w, s); err != nil {
				return err
			}
		}
		return nil
	case ElemEndDoc:
		if !r.sep {
			return nil
		}
		_, err := io.WriteString(r.w, "\n")
		return err
	}
	return fmt.Errorf("report: unknown element kind %d", el.Kind)
}

// block renders one reassembled table or chart followed by a blank line.
func (r *textRenderer) block(render func(io.Writer) error) error {
	if err := render(r.w); err != nil {
		return err
	}
	_, err := io.WriteString(r.w, "\n")
	return err
}
