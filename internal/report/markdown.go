package report

import (
	"fmt"
	"io"
	"strings"
)

// Markdown writes the document as GitHub-flavored markdown: a heading per
// document, pipe tables, ASCII charts inside fenced code blocks, and notes
// as a bullet list. EXPERIMENTS.md and the golden tests consume this form.
// It is the standalone replay into the markdown backend; because every
// rendered block ends with a blank line, markdown documents self-separate
// and the streaming form emits exactly the same bytes.
func (d *Document) Markdown(w io.Writer) error {
	return d.Replay(&markdownRenderer{w: w})
}

// markdownRenderer is the GFM backend. Pipe-table rows need no alignment,
// so tables flush row by row: ElemBeginTable writes
// the title, header and separator at once, every ElemRow goes straight to
// the writer (cols holds the open table's column count for padding), and
// ElemEndTable just closes with the blank line. Charts render as ASCII
// inside a fence and therefore buffer until ElemEndChart. sawNote decides
// the blank line closing a document's bullet list.
type markdownRenderer struct {
	w       io.Writer
	sawNote bool
	inTable bool
	cols    []string
	chart   *Chart
}

func (r *markdownRenderer) Begin() error { return nil }
func (r *markdownRenderer) End() error   { return nil }

func (r *markdownRenderer) Element(el Element) error {
	switch el.Kind {
	case ElemBeginDoc:
		r.sawNote = false
		_, err := fmt.Fprintf(r.w, "## %s: %s\n\n", escapeMarkdown(el.ID), escapeMarkdown(el.Title))
		return err
	case ElemBeginTable:
		r.inTable, r.cols = true, el.Table.Columns
		return markdownTableHeader(r.w, el.Table.Title, el.Table.Columns)
	case ElemRow:
		if !r.inTable {
			return fmt.Errorf("report: ElemRow outside a table")
		}
		return markdownTableRow(r.w, r.cols, el.Row)
	case ElemEndTable:
		r.inTable, r.cols = false, nil
		_, err := fmt.Fprintln(r.w)
		return err
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
		if _, err := fmt.Fprintln(r.w, "```"); err != nil {
			return err
		}
		if err := c.Render(r.w); err != nil {
			return err
		}
		if _, err := fmt.Fprintln(r.w, "```"); err != nil {
			return err
		}
		_, err := fmt.Fprintln(r.w)
		return err
	case ElemNote:
		r.sawNote = true
		_, err := fmt.Fprintf(r.w, "- %s\n", escapeMarkdown(el.Note))
		return err
	case ElemEndDoc:
		if !r.sawNote {
			return nil
		}
		_, err := fmt.Fprintln(r.w)
		return err
	}
	return fmt.Errorf("report: unknown element kind %d", el.Kind)
}

// markdownTableHeader writes the bold title (when present), the header row
// and the --- separator — everything a pipe table emits before its first
// data row, so a streaming producer can flush it the moment the table
// opens.
func markdownTableHeader(w io.Writer, title string, columns []string) error {
	if title != "" {
		if _, err := fmt.Fprintf(w, "**%s**\n\n", escapeMarkdown(title)); err != nil {
			return err
		}
	}
	if err := markdownTableRow(w, columns, columns); err != nil {
		return err
	}
	sep := make([]string, len(columns))
	for i := range sep {
		sep[i] = "---"
	}
	_, err := fmt.Fprintf(w, "| %s |\n", strings.Join(sep, " | "))
	return err
}

// markdownTableRow writes one pipe-table row, padded (or truncated) to the
// column count with every cell escaped.
func markdownTableRow(w io.Writer, columns, cells []string) error {
	out := make([]string, len(columns))
	for i := range columns {
		cell := ""
		if i < len(cells) {
			cell = cells[i]
		}
		out[i] = escapeCell(cell)
	}
	_, err := fmt.Fprintf(w, "| %s |\n", strings.Join(out, " | "))
	return err
}

// escapeCell protects the pipe-table structure from cell content.
func escapeCell(s string) string {
	s = strings.ReplaceAll(s, "|", `\|`)
	return strings.ReplaceAll(s, "\n", "<br>")
}

// escapeMarkdown neutralizes characters that would change block structure
// in free-form text (titles and notes keep their inline content literal).
func escapeMarkdown(s string) string {
	return strings.ReplaceAll(s, "\n", " ")
}
