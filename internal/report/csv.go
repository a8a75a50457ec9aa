package report

import (
	"fmt"
	"io"
	"strings"
)

// CSV writes every table in the document as CSV separated by blank lines —
// the standalone replay into the csv backend (no trailing document
// separator; the streaming form adds one between documents).
func (d *Document) CSV(w io.Writer) error {
	return d.Replay(&csvRenderer{w: w})
}

// csvRenderer is the machine-readable tables-only backend: each table as a
// # title comment plus RFC-4180-ish rows, a blank line after each. Charts
// and notes have no tabular form and are skipped; tables carry their own
// titles, so consumers can locate sections without document framing. sep
// adds the blank line that separates documents in a stream.
//
// CSV rows carry no alignment, so tables flush row by row: ElemBeginTable
// writes the # title comment and header row, every ElemRow goes straight
// to the writer, and ElemEndTable emits the closing blank line.
type csvRenderer struct {
	w   io.Writer
	sep bool
}

func (r *csvRenderer) Begin() error { return nil }
func (r *csvRenderer) End() error   { return nil }

func (r *csvRenderer) Element(el Element) error {
	switch el.Kind {
	case ElemBeginTable:
		if _, err := fmt.Fprintf(r.w, "# %s\n", el.Table.Title); err != nil {
			return err
		}
		return csvWriteRow(r.w, el.Table.Columns)
	case ElemRow:
		return csvWriteRow(r.w, el.Row)
	case ElemEndTable:
		_, err := fmt.Fprintln(r.w)
		return err
	case ElemEndDoc:
		if !r.sep {
			return nil
		}
		_, err := fmt.Fprintln(r.w)
		return err
	case ElemBeginDoc, ElemNote, ElemBeginChart, ElemSeries, ElemEndChart:
		return nil
	}
	return fmt.Errorf("report: unknown element kind %d", el.Kind)
}

// csvEscape quotes a cell when its content would break the row structure.
func csvEscape(s string) string {
	if strings.ContainsAny(s, ",\"\n") {
		return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
	}
	return s
}

// csvWriteRow writes one comma-joined, escaped row.
func csvWriteRow(w io.Writer, cells []string) error {
	out := make([]string, len(cells))
	for i, c := range cells {
		out[i] = csvEscape(c)
	}
	_, err := fmt.Fprintln(w, strings.Join(out, ","))
	return err
}
